#include "model/registry.hh"

#include "base/status.hh"
#include "cat/eval.hh"
#include "model/alpha_model.hh"
#include "model/armv8_model.hh"
#include "model/c11_model.hh"
#include "model/lkmm_model.hh"
#include "model/power_model.hh"
#include "model/sc_model.hh"
#include "model/tso_model.hh"

namespace lkmm
{

namespace
{

template <typename M, typename... Args>
ModelFactory
factory(Args... args)
{
    return [args...] { return std::make_unique<M>(args...); };
}

} // namespace

ModelRegistry::ModelRegistry()
{
    add({"lkmm", {}, "the native Linux-kernel memory model (default)"},
        factory<LkmmModel>());
    add({"sc", {}, "sequential consistency"}, factory<ScModel>());
    add({"tso", {"x86"}, "total store order (x86)"},
        factory<TsoModel>());
    add({"power", {}, "IBM Power"}, factory<PowerModel>());
    add({"armv7", {}, "ARMv7 (Power flavor without cumulativity drop)"},
        factory<PowerModel>(PowerModel::Flavor::Armv7));
    add({"armv8", {}, "ARMv8 (other-multi-copy-atomic)"},
        factory<Armv8Model>());
    add({"alpha", {}, "DEC Alpha (no address-dependency ordering)"},
        factory<AlphaModel>());
    add({"c11", {}, "the C11 model of the paper's comparison"},
        factory<C11Model>());
}

void
ModelRegistry::add(ModelInfo info, ModelFactory fac)
{
    infos_.push_back(info);
    entries_.push_back(Entry{std::move(info), std::move(fac)});
}

const ModelRegistry &
ModelRegistry::instance()
{
    static const ModelRegistry registry;
    return registry;
}

const std::vector<ModelInfo> &
ModelRegistry::listModels() const
{
    return infos_;
}

ModelFactory
ModelRegistry::find(const std::string &name) const
{
    for (const Entry &e : entries_) {
        if (e.info.name == name)
            return e.factory;
        for (const std::string &alias : e.info.aliases) {
            if (alias == name)
                return e.factory;
        }
    }
    return nullptr;
}

std::unique_ptr<Model>
ModelRegistry::make(const std::string &name) const
{
    ModelFactory fac = find(name);
    if (!fac) {
        throw StatusError(Status(StatusCode::InvalidArgument,
                                 "unknown model '" + name +
                                     "' (known: " + knownNames() +
                                     ")"));
    }
    return fac();
}

ModelFactory
ModelRegistry::factoryFor(const std::string &spec) const
{
    std::string catPath;
    if (spec.rfind("cat:", 0) == 0)
        catPath = spec.substr(4);
    else if (spec.size() > 4 &&
             spec.compare(spec.size() - 4, 4, ".cat") == 0)
        catPath = spec;

    if (!catPath.empty()) {
        // Load once, eagerly: bad paths and malformed models surface
        // at spec-resolution time, not on first use in a worker.
        // Each instance copies the prototype, sharing its lowered
        // program but keeping frames of its own.
        auto proto = std::make_shared<const CatModel>(
            CatModel::fromFile(catPath));
        return [proto] { return std::make_unique<CatModel>(*proto); };
    }

    ModelFactory fac = find(spec);
    if (!fac) {
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            "unknown model spec '" + spec + "' (known: " +
                knownNames() + ", cat:FILE, or a path ending in .cat)"));
    }
    return fac;
}

std::string
ModelRegistry::helpText() const
{
    std::string out;
    for (const ModelInfo &info : infos_) {
        std::string names = info.name;
        for (const std::string &alias : info.aliases)
            names += "/" + alias;
        out += "  ";
        out += names;
        out.append(names.size() < 12 ? 12 - names.size() : 1, ' ');
        out += info.description;
        out += "\n";
    }
    return out;
}

std::string
ModelRegistry::knownNames() const
{
    std::string out;
    for (const ModelInfo &info : infos_) {
        if (!out.empty())
            out += ", ";
        out += info.name;
        for (const std::string &alias : info.aliases)
            out += " (" + alias + ")";
    }
    return out;
}

} // namespace lkmm
