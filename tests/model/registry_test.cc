/**
 * @file
 * The ModelRegistry (src/model/registry): the one name → factory
 * table behind lkmm-sweep's --model, the fuzz oracles and the bench
 * binaries.  Covers canonical names, aliases, error reporting for
 * unknown names, cat-file specs and the self-describing listing.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>

#include "base/status.hh"
#include "lkmm/catalog.hh"
#include "lkmm/runner.hh"
#include "model/registry.hh"

namespace lkmm
{
namespace
{

namespace fs = std::filesystem;

TEST(Registry, ListsEveryBuiltinModel)
{
    const auto &models = ModelRegistry::instance().listModels();
    std::set<std::string> names;
    for (const ModelInfo &info : models) {
        EXPECT_FALSE(info.description.empty()) << info.name;
        EXPECT_TRUE(names.insert(info.name).second)
            << "duplicate name " << info.name;
    }
    for (const char *expected :
         {"lkmm", "sc", "tso", "power", "armv7", "armv8", "alpha",
          "c11"}) {
        EXPECT_TRUE(names.count(expected)) << expected;
    }
}

TEST(Registry, MakeConstructsWorkingModels)
{
    const ModelRegistry &reg = ModelRegistry::instance();
    for (const ModelInfo &info : reg.listModels()) {
        auto model = reg.make(info.name);
        ASSERT_NE(model, nullptr) << info.name;
        // Spot-check each instance actually verifies: an unbounded
        // run of SB must reach a conclusive verdict under every
        // model (Allow on the weak ones, Forbid under SC).
        EXPECT_NE(quickVerdict(sb(), *model), Verdict::Unknown)
            << info.name;
    }
}

TEST(Registry, AliasesResolveToTheSameModel)
{
    const ModelRegistry &reg = ModelRegistry::instance();
    auto viaAlias = reg.make("x86");
    auto viaName = reg.make("tso");
    ASSERT_NE(viaAlias, nullptr);
    EXPECT_EQ(viaAlias->name(), viaName->name());
    EXPECT_NE(reg.find("x86"), nullptr);
}

TEST(Registry, UnknownNameThrowsWithKnownNames)
{
    const ModelRegistry &reg = ModelRegistry::instance();
    EXPECT_EQ(reg.find("not-a-model"), nullptr);
    try {
        reg.make("not-a-model");
        FAIL() << "unknown model accepted";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
        // The message must name the offender and list what exists.
        EXPECT_NE(e.status().message().find("not-a-model"),
                  std::string::npos);
        EXPECT_NE(e.status().message().find("lkmm"),
                  std::string::npos);
    }
}

TEST(Registry, FactoryGivesIndependentInstances)
{
    ModelFactory f = ModelRegistry::instance().find("lkmm");
    ASSERT_NE(f, nullptr);
    auto a = f();
    auto b = f();
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->name(), b->name());
}

TEST(Registry, FactoryForResolvesCatSpecs)
{
    const std::string catPath =
        std::string(LKMM_CAT_MODEL_DIR) + "/lkmm.cat";
    const ModelRegistry &reg = ModelRegistry::instance();
    // Both spellings: explicit "cat:" prefix and a bare .cat path.
    for (const std::string &spec : {"cat:" + catPath, catPath}) {
        ModelFactory f = reg.factoryFor(spec);
        ASSERT_NE(f, nullptr) << spec;
        auto model = f();
        ASSERT_NE(model, nullptr) << spec;
        // lkmm.cat allows unsynchronised store buffering.
        EXPECT_EQ(quickVerdict(sb(), *model), Verdict::Allow) << spec;
    }
    // And plain registry names still route through factoryFor.
    EXPECT_NE(reg.factoryFor("sc"), nullptr);
}

TEST(Registry, FactoryForValidatesCatFilesEagerly)
{
    // A missing file fails at resolution time, not on first use
    // inside some worker thread.
    EXPECT_THROW(ModelRegistry::instance().factoryFor(
                     "cat:/nonexistent/model.cat"),
                 StatusError);
}

TEST(Registry, CatFactoryLoadsOnce)
{
    // The spec is loaded when it is resolved; later instances copy
    // that model, so the file is not read again.
    const fs::path dir =
        fs::temp_directory_path() /
        ("lkmm-registry-" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const fs::path copy = dir / "lkmm.cat";
    fs::copy_file(std::string(LKMM_CAT_MODEL_DIR) + "/lkmm.cat", copy,
                  fs::copy_options::overwrite_existing);
    ModelFactory f =
        ModelRegistry::instance().factoryFor("cat:" + copy.string());
    fs::remove_all(dir);

    auto a = f();
    auto b = f();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->name(), b->name());
    EXPECT_EQ(quickVerdict(sb(), *a), Verdict::Allow);
    EXPECT_EQ(quickVerdict(sb(), *b), Verdict::Allow);
}

TEST(Registry, HelpTextAndKnownNamesCoverTheTable)
{
    const ModelRegistry &reg = ModelRegistry::instance();
    const std::string help = reg.helpText();
    const std::string known = reg.knownNames();
    for (const ModelInfo &info : reg.listModels()) {
        EXPECT_NE(help.find(info.name), std::string::npos)
            << info.name;
        EXPECT_NE(known.find(info.name), std::string::npos)
            << info.name;
    }
    EXPECT_NE(known.find("x86"), std::string::npos);
}

} // namespace
} // namespace lkmm
