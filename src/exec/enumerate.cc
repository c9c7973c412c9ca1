#include "exec/enumerate.hh"

#include <algorithm>

#include "base/faultinject.hh"
#include "exec/enum_core.hh"

namespace lkmm
{

using enumcore::Layout;
using enumcore::Valuation;

void
Enumerator::forEach(const std::function<bool(const CandidateExecution &)> &fn)
{
    faultinject::checkSite(faultinject::site::kEnumerate,
                           prog_.name.c_str());

    BudgetTracker tracker(budget_);
    const auto num_locs = static_cast<std::size_t>(prog_.numLocs());
    std::vector<std::vector<EventId>> by_loc;
    enumcore::CoOrders perms(num_locs);

    enumcore::forEachLayout(prog_, tracker, stats_, [&](const Layout &lay) {
        std::vector<Relation> co_stack(num_locs + 1,
                                       Relation(lay.events.size()));
        return enumcore::forEachConsistentRf(
            lay, /*prune=*/false, tracker, stats_,
            [&](const std::vector<EventId> &rf_src, const Valuation &val) {
                // Every permutation of every location's writes, in
                // std::next_permutation order.
                enumcore::groupWritesByLoc(lay, val, by_loc);
                for (std::size_t l = 0; l < num_locs; ++l) {
                    std::vector<EventId> &ws = by_loc[l];
                    perms[l].reset(ws.size());
                    do {
                        perms[l].flat.insert(perms[l].flat.end(),
                                             ws.begin(), ws.end());
                    } while (std::next_permutation(ws.begin(), ws.end()));
                }
                return enumcore::forEachCo(
                    perms, co_stack, [&](const Relation &co) {
                        if (!tracker.onCandidate())
                            return false;
                        CandidateExecution ex;
                        enumcore::buildRelations(lay, val, rf_src, ex);
                        ex.co = co;
                        ex.finalize();
                        ++stats_.candidates;
                        return fn(ex);
                    });
            });
    });

    tripped_ = tracker.bound();
    completeness_ = tripped_ == BoundKind::None ? Completeness::Complete
                                                : Completeness::Truncated;
}

std::vector<CandidateExecution>
Enumerator::all()
{
    std::vector<CandidateExecution> out;
    forEach([&](const CandidateExecution &ex) {
        out.push_back(ex);
        return true;
    });
    return out;
}

} // namespace lkmm
