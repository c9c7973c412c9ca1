#include "lkmm/sweep_journal.hh"

#include "base/faultinject.hh"
#include "base/status.hh"

namespace lkmm
{

namespace
{

[[noreturn]] void
schemaError(const std::string &what)
{
    throw StatusError(Status(StatusCode::ParseError,
                             "sweep journal: " + what));
}

/**
 * Decode an enum name; a name this build does not know is a schema
 * error.
 */
template <typename Enum>
Enum
decodeName(std::optional<Enum> (*fromName)(const std::string &),
           const char *what, const std::string &name)
{
    const std::optional<Enum> value = fromName(name);
    if (!value)
        schemaError(std::string("unknown ") + what + " '" + name + "'");
    return *value;
}

std::string
requireTest(const json::Value &record)
{
    const std::string test = record.getString("test");
    if (test.empty())
        schemaError("record without a test name");
    return test;
}

} // namespace

const std::vector<json::SizeField<Enumerator::Stats>> &
statsFields()
{
    using Stats = Enumerator::Stats;
    static const std::vector<json::SizeField<Stats>> fields = {
        {"pathCombos", &Stats::pathCombos},
        {"rfSpace", &Stats::rfSpace},
        {"rfAssignments", &Stats::rfAssignments},
        {"valuationRejects", &Stats::valuationRejects},
        {"rfConsistent", &Stats::rfConsistent},
        {"rfPruned", &Stats::rfPruned},
        {"coPruned", &Stats::coPruned},
        {"partialValuationRejects", &Stats::partialValuationRejects},
        {"rfSatRejects", &Stats::rfSatRejects},
        {"coSatForced", &Stats::coSatForced},
        {"coFallbacks", &Stats::coFallbacks},
    };
    return fields;
}

json::Value
sweepMetaRecord(const std::string &model, std::uint64_t seed)
{
    json::Object o;
    o["type"] = json::Value("meta");
    o["version"] = json::Value(kSweepJournalVersion);
    o["model"] = json::Value(model);
    o["seed"] = json::Value(static_cast<std::int64_t>(seed));
    return json::Value(std::move(o));
}

json::Value
toJson(const BatchItemResult &result)
{
    json::Object o;
    o["type"] = json::Value("result");
    o["test"] = json::Value(result.name);
    o["attempts"] = json::Value(result.attempts);
    o["verdict"] = json::Value(verdictName(result.result.verdict));
    o["candidates"] = json::Value(result.result.candidates);
    o["allowedCandidates"] = json::Value(result.result.allowedCandidates);
    o["witnesses"] = json::Value(result.result.witnesses);
    o["completeness"] =
        json::Value(completenessName(result.result.completeness));
    o["bound"] = json::Value(boundKindName(result.result.trippedBound));
    json::putFields(o, result.result.stats, statsFields());
    o["finalStates"] = json::stringArray(std::vector<std::string>(
        result.result.allowedFinalStates.begin(),
        result.result.allowedFinalStates.end()));
    if (!result.result.violationText.empty())
        o["violation"] = json::Value(result.result.violationText);
    return json::Value(std::move(o));
}

json::Value
toJson(const TestFailure &failure)
{
    json::Object o;
    o["type"] = json::Value("failure");
    o["test"] = json::Value(failure.test);
    o["phase"] = json::Value(failure.phase);
    o["code"] = json::Value(statusCodeName(failure.status.code()));
    o["message"] = json::Value(failure.status.message());
    return json::Value(std::move(o));
}

json::Value
toJson(const Divergence &divergence)
{
    json::Object o;
    o["type"] = json::Value("divergence");
    o["test"] = json::Value(divergence.test);
    o["primary"] = json::Value(verdictName(divergence.primary));
    o["reference"] = json::Value(verdictName(divergence.reference));
    return json::Value(std::move(o));
}

std::vector<json::Value>
toRecords(const ItemOutcome &outcome)
{
    faultinject::checkSite(faultinject::site::kSweepEncode);
    std::vector<json::Value> records;
    if (outcome.result)
        records.push_back(toJson(*outcome.result));
    for (const TestFailure &f : outcome.failures)
        records.push_back(toJson(f));
    for (const Divergence &d : outcome.divergences)
        records.push_back(toJson(d));
    return records;
}

void
decodeRecord(const json::Value &record,
             std::map<std::string, ItemOutcome> &outcomes,
             std::string *model)
{
    faultinject::checkSite(faultinject::site::kSweepDecode);
    const std::string type = record.getString("type");
    if (type == "meta") {
        if (record.getInt("version") != kSweepJournalVersion) {
            schemaError("unsupported journal version " +
                        std::to_string(record.getInt("version")));
        }
        if (model)
            *model = record.getString("model");
        return;
    }
    if (type == "result") {
        const std::string test = requireTest(record);
        BatchItemResult res;
        res.name = test;
        res.attempts = static_cast<int>(record.getInt("attempts", 1));
        res.result.verdict = decodeName(verdictFromName, "verdict",
                                        record.getString("verdict"));
        res.result.candidates =
            static_cast<std::size_t>(record.getInt("candidates"));
        res.result.allowedCandidates =
            static_cast<std::size_t>(record.getInt("allowedCandidates"));
        res.result.witnesses =
            static_cast<std::size_t>(record.getInt("witnesses"));
        res.result.completeness =
            record.getString("completeness") == "truncated"
                ? Completeness::Truncated
                : Completeness::Complete;
        res.result.trippedBound =
            decodeName(boundKindFromName, "bound kind",
                       record.getString("bound", "none"));
        // Stats fields are additive (journals from before them
        // decode with zeros).
        json::getFields(record, res.result.stats, statsFields());
        res.result.stats.candidates = res.result.candidates;
        if (const json::Value *states = record.get("finalStates")) {
            for (const json::Value &s : states->asArray())
                res.result.allowedFinalStates.insert(s.asString());
        }
        res.result.violationText = record.getString("violation");
        outcomes[test].result = std::move(res);
        return;
    }
    if (type == "failure") {
        const std::string test = requireTest(record);
        TestFailure f;
        f.test = test;
        f.phase = record.getString("phase");
        f.status = Status(decodeName(statusCodeFromName, "status code",
                                     record.getString("code")),
                          record.getString("message"));
        outcomes[test].failures.push_back(std::move(f));
        return;
    }
    if (type == "divergence") {
        const std::string test = requireTest(record);
        Divergence d;
        d.test = test;
        d.primary = decodeName(verdictFromName, "verdict",
                               record.getString("primary"));
        d.reference = decodeName(verdictFromName, "verdict",
                                 record.getString("reference"));
        outcomes[test].divergences.push_back(std::move(d));
        return;
    }
    schemaError("unknown record type '" + type + "'");
}

SweepJournalContents
decodeSweepJournal(const std::vector<json::Value> &records)
{
    SweepJournalContents contents;
    for (const json::Value &record : records)
        decodeRecord(record, contents.outcomes, &contents.model);
    return contents;
}

} // namespace lkmm
