/**
 * @file
 * The model registry: one canonical name → factory table for every
 * consistency model the engine ships.
 *
 * Before this existed, each tool grew its own `makeModel` chain
 * (lkmm-sweep), its own ad-hoc model table (bench_soundness), and
 * its own construction sites (the fuzz oracles) — three places to
 * forget when a model is added.  The registry is the single public
 * entry point:
 *
 *   std::unique_ptr<Model> m = ModelRegistry::instance().make("tso");
 *   ModelFactory f = ModelRegistry::instance().factoryFor("cat:foo.cat");
 *
 * Factories matter for the parallel engine: a factory can be invoked
 * once per worker, giving every thread its own Model instance with
 * no shared mutable state (see DESIGN.md "In-process parallel
 * verification").
 *
 * Entries are self-describing (name, aliases, one-line description),
 * so `--help` text and `--list-models` output are generated from the
 * table instead of drifting from it.
 */

#ifndef LKMM_MODEL_REGISTRY_HH
#define LKMM_MODEL_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "model/model.hh"

namespace lkmm
{

/** One self-describing registry entry. */
struct ModelInfo
{
    /** Canonical name, e.g. "tso". */
    std::string name;
    /** Accepted synonyms, e.g. {"x86"} for tso. */
    std::vector<std::string> aliases;
    /** One line for --help / --list-models. */
    std::string description;
};

/** The canonical name → factory table. */
class ModelRegistry
{
  public:
    /** The process-wide registry of built-in models. */
    static const ModelRegistry &instance();

    /** Every registered model, in canonical listing order. */
    const std::vector<ModelInfo> &listModels() const;

    /**
     * Factory for a registered name or alias; a null function when
     * the name is unknown.
     */
    ModelFactory find(const std::string &name) const;

    /**
     * Construct a model by name or alias.
     *
     * @throws StatusError(InvalidArgument) on unknown names, with
     *         the known names in the message.
     */
    std::unique_ptr<Model> make(const std::string &name) const;

    /**
     * Resolve a model spec to a factory: a registered name/alias, a
     * "cat:PATH" spec, or a bare path ending in ".cat".
     *
     * The file behind a cat spec is loaded once, here — a bad path
     * or malformed model throws here, not on first use inside a
     * worker thread.  Each factory invocation returns a copy that
     * shares the lowered program and evaluates on frames of its
     * own, so parallel workers never contend.
     *
     * @throws StatusError(InvalidArgument | IoError | ParseError)
     */
    ModelFactory factoryFor(const std::string &spec) const;

    /** "  lkmm     the native Linux-kernel memory model\n..." */
    std::string helpText() const;

    /** "lkmm, sc, tso (x86), ..." for error messages. */
    std::string knownNames() const;

  private:
    struct Entry
    {
        ModelInfo info;
        ModelFactory factory;
    };

    ModelRegistry();

    void add(ModelInfo info, ModelFactory factory);

    std::vector<Entry> entries_;
    std::vector<ModelInfo> infos_;
};

} // namespace lkmm

#endif // LKMM_MODEL_REGISTRY_HH
