/**
 * @file
 * The one serialization point for fuzz-campaign reports — the fuzz
 * counterpart of lkmm/report.hh, built on the same base/json layer.
 * lkmm-fuzz's --summary json and text modes both render through
 * here, so the report schema cannot fork from its consumers.
 */

#ifndef LKMM_FUZZ_REPORT_HH
#define LKMM_FUZZ_REPORT_HH

#include <cstdio>

#include "base/json.hh"
#include "fuzz/campaign.hh"

namespace lkmm::fuzz
{

/**
 * The machine-readable campaign summary: seed, iteration counts,
 * finding/bucket totals, unconfirmed worker deaths and the
 * per-bucket detail array.
 */
json::Value toJson(const FuzzReport &report);

/**
 * The human-readable campaign summary: one BUCKET line per triage
 * bucket plus the one-line totals footer (unconfirmed worker deaths
 * included).
 */
void printText(std::FILE *out, const FuzzReport &report);

} // namespace lkmm::fuzz

#endif // LKMM_FUZZ_REPORT_HH
