#include "exec/rf_engine.hh"

#include <algorithm>

#include "base/faultinject.hh"
#include "exec/enum_core.hh"
#include "relation/kernels.hh"

namespace lkmm
{

using enumcore::Layout;
using enumcore::Valuation;

namespace
{

/** Depth-first step of linearExtensions: extend the prefix `cur`. */
void
extend(const std::vector<EventId> &ws, const Relation &forced,
       std::vector<EventId> &cur, std::vector<char> &used,
       std::vector<EventId> &out)
{
    const std::size_t k = ws.size();
    if (cur.size() == k) {
        out.insert(out.end(), cur.begin(), cur.end());
        return;
    }
    for (std::size_t i = 0; i < k; ++i) {
        if (used[i])
            continue;
        bool minimal = true;
        for (std::size_t j = 0; j < k && minimal; ++j)
            minimal = used[j] || j == i || !forced.contains(ws[j], ws[i]);
        if (!minimal)
            continue;
        used[i] = 1;
        cur.push_back(ws[i]);
        extend(ws, forced, cur, used, out);
        cur.pop_back();
        used[i] = 0;
    }
}

/**
 * All linear extensions of the forced order restricted to `ws`
 * (sorted ascending), in lexicographic order of the choices: at
 * each step every not-yet-placed write with no not-yet-placed
 * forced predecessor is tried in ascending event-id order.  With a
 * total forced order this yields exactly one extension; with an
 * empty one, all |ws|! permutations in std::next_permutation order
 * — the bounded fallback.  `cur` and `used` are scratch.
 */
void
linearExtensions(const std::vector<EventId> &ws, const Relation &forced,
                 std::vector<EventId> &cur, std::vector<char> &used,
                 enumcore::LocOrders &out)
{
    out.reset(ws.size());
    if (ws.size() < 2) {
        out.flat.assign(ws.begin(), ws.end());
        return;
    }
    cur.clear();
    used.assign(ws.size(), 0);
    extend(ws, forced, cur, used, out.flat);
}

} // namespace

void
RfFirstEngine::forEach(
    const std::function<bool(const CandidateExecution &)> &fn)
{
    faultinject::maybeFail(faultinject::Point::Enumerate,
                           prog_.name.c_str());

    BudgetTracker tracker(budget_);
    const auto num_locs = static_cast<std::size_t>(prog_.numLocs());

    // initWrites[l] = l is a layout invariant (init writes come
    // first, one per location, in location order).
    std::vector<EventId> init_writes(num_locs);
    for (std::size_t l = 0; l < num_locs; ++l)
        init_writes[l] = static_cast<EventId>(l);
    std::vector<std::vector<EventId>> by_loc;
    enumcore::CoOrders exts(num_locs);
    std::vector<EventId> ext_cur;
    std::vector<char> ext_used;

    enumcore::forEachLayout(prog_, tracker, stats_, [&](const Layout &lay) {
        const std::size_t n = lay.events.size();

        // Statics of this path combo, shared by every candidate.
        // The combo boundary is the static-stage lifetime:
        // everything the previous combo carved from the arena dies
        // here, and the stages below reuse their allocations in
        // place for the whole combo.
        arena_.reset();
        CandidateExecution base;
        base.attachArena(&arena_);
        enumcore::buildStaticRelations(lay, base);
        base.finalizeStatic();
        base.co = Relation(arena_, n);

        // Per-rf saturation state and the per-depth co scratch,
        // cleared and refilled in place by every rf; the fixpoint's
        // scratch is carved on the first rf that saturates.
        Relation forced(arena_, n);
        rel::SaturationScratch sat_scratch;
        std::vector<Relation> co_stack;
        co_stack.reserve(num_locs + 1);
        for (std::size_t i = 0; i <= num_locs; ++i)
            co_stack.emplace_back(arena_, n);

        // Delivers one co order of the current rf.
        std::size_t delivered = 0;
        const std::function<bool(const Relation &)> deliver =
            [&](const Relation &co) {
            if (!tracker.onCandidate())
                return false;
            rel::copyInto(base.co, co);
            base.finalizeCo();
            ++stats_.candidates;
            ++delivered;
            return fn(base);
        };

        return enumcore::forEachConsistentRf(
            lay, /*prune=*/true, tracker, stats_,
            [&](const std::vector<EventId> &rf_src, const Valuation &val) {
                // Mutate the shared static base rather than copying
                // it: applyValuation overwrites every non-init event
                // and finalRegs wholesale, and finalizeRf/finalizeCo
                // overwrite all their outputs, so only rf (which
                // applyValuation accumulates into) needs a reset.
                rel::clear(base.rf);
                enumcore::applyValuation(lay, val, rf_src, base);
                base.finalizeRf();
                enumcore::groupWritesByLoc(lay, val, by_loc);

                // Saturate the forced part of co under the model's
                // axioms; a contradiction retires the whole rf.
                // With at most one non-init write per location co
                // is unique, so saturation could at most reject its
                // one candidate, which the model rejects as well:
                // skip it, as when the model promises nothing.
                // Only locations with two or more writes consult
                // `forced` below, so a skipped rf leaves it unread.
                const bool unique_co = std::all_of(
                    by_loc.begin(), by_loc.end(),
                    [](const auto &ws) { return ws.size() < 2; });
                if (support_.any() && !unique_co) {
                    rel::clear(forced);
                    sat_scratch.prepare(arena_, n);
                    const rel::SaturationResult sat =
                        rel::saturateForcedCo(forced, base.poLoc(),
                                              base.rf, base.rmw,
                                              base.intRel(), by_loc,
                                              init_writes, support_,
                                              sat_scratch);
                    if (sat.contradiction) {
                        ++stats_.rfSatRejects;
                        return true;
                    }
                    stats_.coSatForced += sat.forcedEdges;
                }

                // Bounded fallback: enumerate linear extensions of
                // what saturation left open.
                std::size_t total_exts = 1;
                for (std::size_t l = 0; l < num_locs; ++l) {
                    linearExtensions(by_loc[l], forced, ext_cur,
                                     ext_used, exts[l]);
                    total_exts *= exts[l].count();
                }
                if (total_exts > 1)
                    ++stats_.coFallbacks;

                delivered = 0;
                const bool more = enumcore::forEachCo(exts, co_stack, deliver);
                if (!more)
                    stats_.coPruned += total_exts - delivered;
                return more;
            });
    });

    tripped_ = tracker.bound();
    completeness_ = tripped_ == BoundKind::None ? Completeness::Complete
                                                : Completeness::Truncated;
}

std::vector<CandidateExecution>
RfFirstEngine::all()
{
    std::vector<CandidateExecution> out;
    forEach([&](const CandidateExecution &ex) {
        out.push_back(ex);
        return true;
    });
    return out;
}

} // namespace lkmm
