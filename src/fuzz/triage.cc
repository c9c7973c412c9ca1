#include "fuzz/triage.hh"

namespace lkmm::fuzz
{

bool
TriageDb::add(const FuzzFinding &f)
{
    ++total_;
    const std::string sig = f.finding.signature();
    auto [it, inserted] = buckets_.try_emplace(sig);
    Bucket &b = it->second;
    ++b.count;
    if (inserted) {
        b.signature = sig;
        b.representative = f;
    }
    return inserted;
}

json::Value
encodeFuzzMeta(std::uint64_t seed, const std::string &oracles,
               std::uint64_t maxIters)
{
    json::Object o;
    o["type"] = "fuzz-meta";
    o["version"] = kFuzzJournalVersion;
    o["seed"] = static_cast<std::int64_t>(seed);
    o["oracles"] = oracles;
    o["maxIters"] = static_cast<std::int64_t>(maxIters);
    return o;
}

json::Value
encodeFuzzIter(std::uint64_t iter)
{
    json::Object o;
    o["type"] = "fuzz-iter";
    o["iter"] = static_cast<std::int64_t>(iter);
    return o;
}

json::Value
encodeFuzzFinding(const FuzzFinding &f)
{
    json::Object o;
    o["type"] = "fuzz-finding";
    o["iter"] = static_cast<std::int64_t>(f.iter);
    o["test"] = f.test;
    o["oracle"] = f.finding.oracle;
    o["kind"] = f.finding.kind;
    o["detail"] = f.finding.detail;
    o["a"] = std::string(verdictName(f.finding.a));
    o["b"] = std::string(verdictName(f.finding.b));
    o["source"] = f.source;
    o["minimized"] = f.minimized;
    return o;
}

RecoveredCampaign
recoverCampaign(const std::string &path)
{
    RecoveredCampaign out;
    const journal::RecoverResult rec = journal::recover(path);
    out.validBytes = rec.validBytes;
    out.droppedTail = rec.droppedTail;
    for (const json::Value &r : rec.records) {
        const std::string type = r.getString("type");
        if (type == "fuzz-meta") {
            if (r.getInt("version") > kFuzzJournalVersion)
                continue; // future format: ignore, don't trust
            out.hasMeta = true;
            out.seed = static_cast<std::uint64_t>(r.getInt("seed"));
            out.oracles = r.getString("oracles");
            out.maxIters =
                static_cast<std::uint64_t>(r.getInt("maxIters"));
        } else if (type == "fuzz-iter") {
            const auto iter =
                static_cast<std::uint64_t>(r.getInt("iter"));
            if (iter + 1 > out.nextIter)
                out.nextIter = iter + 1;
        } else if (type == "fuzz-finding") {
            FuzzFinding f;
            f.iter = static_cast<std::uint64_t>(r.getInt("iter"));
            f.test = r.getString("test");
            f.finding.oracle = r.getString("oracle");
            f.finding.kind = r.getString("kind");
            f.finding.detail = r.getString("detail");
            f.finding.a =
                verdictFromName(r.getString("a")).value_or(Verdict::Unknown);
            f.finding.b =
                verdictFromName(r.getString("b")).value_or(Verdict::Unknown);
            f.source = r.getString("source");
            f.minimized = r.getString("minimized");
            out.findings.push_back(std::move(f));
        }
        // unknown record types: skip (forward compatibility)
    }
    return out;
}

} // namespace lkmm::fuzz
