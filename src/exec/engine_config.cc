#include "exec/engine_config.hh"

#include <chrono>
#include <cstdint>

#include "base/status.hh"
#include "base/strutil.hh"

namespace lkmm
{

std::string
EngineConfig::modeName() const
{
    return enumerate.rfFirst ? "rf-first" : "brute";
}

void
EngineConfig::setMode(const std::string &name)
{
    if (name != "brute" && name != "rf-first") {
        throw StatusError(Status(StatusCode::InvalidArgument,
                                 "unknown engine mode '" + name +
                                     "' (expected brute or rf-first)"));
    }
    enumerate.rfFirst = name == "rf-first";
}

json::Object
EngineConfig::toJson() const
{
    using std::chrono::duration_cast;
    using std::chrono::milliseconds;
    json::Object o;
    o["engine"] = modeName();
    o["max_candidates"] = budget.maxCandidates;
    o["max_rf"] = budget.maxRfAssignments;
    o["wall_clock_ms"] = static_cast<std::int64_t>(
        duration_cast<milliseconds>(budget.wallClock).count());
    return o;
}

bool
EngineConfig::parseFlag(const std::string &arg,
                        const std::function<std::string()> &next)
{
    if (arg == "--engine") {
        setMode(next());
        return true;
    }
    if (arg == "--engine-time-limit-ms") {
        budget.wallClock =
            parseDuration<std::chrono::milliseconds>(arg, next());
        return true;
    }
    if (arg == "--engine-max-candidates") {
        budget.maxCandidates = parseCount(arg, next());
        return true;
    }
    if (arg == "--engine-max-rf") {
        budget.maxRfAssignments = parseCount(arg, next());
        return true;
    }
    return false;
}

const char *
EngineConfig::flagHelp()
{
    return "engine (shared by lkmm-sweep/fuzz/serve/chaos; "
           "0 = unlimited):\n"
           "  --engine MODE       rf-first | brute (default: rf-first,\n"
           "                      which saturates co from the model's\n"
           "                      axioms; brute is the reference that\n"
           "                      enumerates every rf x co candidate)\n"
           "  --engine-time-limit-ms N   per-run wall-clock budget\n"
           "  --engine-max-candidates N  candidate cap per run\n"
           "  --engine-max-rf N          rf-assignment cap per run\n";
}

} // namespace lkmm
