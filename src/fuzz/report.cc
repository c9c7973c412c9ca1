#include "fuzz/report.hh"

namespace lkmm::fuzz
{

namespace
{

json::Value
bucketJson(const Bucket &b)
{
    json::Object o;
    o["signature"] = b.signature;
    o["count"] = static_cast<std::int64_t>(b.count);
    o["test"] = b.representative.test;
    o["iter"] = static_cast<std::int64_t>(b.representative.iter);
    o["minimized"] = b.representative.minimized;
    return o;
}

} // namespace

json::Value
toJson(const FuzzReport &report)
{
    json::Object root;
    root["seed"] = static_cast<std::int64_t>(report.seed);
    root["iters"] = static_cast<std::int64_t>(report.iters);
    root["resumedFrom"] = static_cast<std::int64_t>(report.startIter);
    root["findings"] =
        static_cast<std::int64_t>(report.triage.totalFindings());
    root["buckets"] =
        static_cast<std::int64_t>(report.triage.buckets().size());
    root["cancelled"] = report.cancelled;
    root["timedOut"] = report.timedOut;
    root["unconfirmedDeaths"] =
        static_cast<std::int64_t>(report.unconfirmedDeaths);
    json::Array buckets;
    for (const auto &[sig, bucket] : report.triage.buckets())
        buckets.push_back(bucketJson(bucket));
    root["buckets_detail"] = std::move(buckets);
    return json::Value(std::move(root));
}

void
printText(std::FILE *out, const FuzzReport &report)
{
    std::fprintf(out, "seed %llu\n",
                 static_cast<unsigned long long>(report.seed));
    for (const auto &[sig, bucket] : report.triage.buckets()) {
        std::fprintf(out,
                     "BUCKET %-50s x%llu (first: %s @ iter %llu)\n",
                     sig.c_str(),
                     static_cast<unsigned long long>(bucket.count),
                     bucket.representative.test.c_str(),
                     static_cast<unsigned long long>(
                         bucket.representative.iter));
    }
    std::fprintf(out,
                 "fuzz: %llu iterations, %llu findings in %zu "
                 "buckets, %llu unconfirmed worker deaths%s%s\n",
                 static_cast<unsigned long long>(report.iters),
                 static_cast<unsigned long long>(
                     report.triage.totalFindings()),
                 report.triage.buckets().size(),
                 static_cast<unsigned long long>(
                     report.unconfirmedDeaths),
                 report.timedOut ? " (time budget reached)" : "",
                 report.cancelled ? " (cancelled)" : "");
}

} // namespace lkmm::fuzz
