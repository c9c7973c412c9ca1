#include "relation/saturation.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>

#include "relation/kernels.hh"

namespace lkmm::rel
{

namespace
{

std::optional<bool> broken_override;

bool
brokenFromEnv()
{
    static const bool on = [] {
        const char *v = std::getenv("LKMM_BREAK_SATURATION");
        return v != nullptr && *v != '\0' && *v != '0';
    }();
    return on;
}

/**
 * Is orienting the still-open pair as co(b, a) impossible in every
 * extension satisfying the coherence axiom?  The new edges are
 * b -> a (co) and r -> a (fr) for every r with rf(b, r); all of
 * them end at `a`, so a new cycle exists iff the closure already
 * reaches from `a` back to one of the sources.
 */
bool
coImpossible(const Relation &closure, const Relation &rf, EventId b,
             EventId a)
{
    if (closure.contains(a, b))
        return true;
    const std::size_t n = closure.size();
    for (EventId r = 0; r < n; ++r) {
        if (rf.contains(b, r) && closure.contains(a, r))
            return true;
    }
    return false;
}

/** Call fn(a, b) for every pair of r, in lexicographic order. */
template <typename Fn>
void
forEachPair(const Relation &r, Fn fn)
{
    const std::size_t stride = r.strideWords();
    for (EventId a = 0; a < r.size(); ++a) {
        const std::uint64_t *row = r.row(a);
        for (std::size_t w = 0; w < stride; ++w) {
            for (std::uint64_t bits = row[w]; bits != 0;
                 bits &= bits - 1) {
                fn(a, static_cast<EventId>(w * 64 +
                                           std::countr_zero(bits)));
            }
        }
    }
}

} // namespace

namespace saturation_testing
{

void
setBrokenRule(bool on)
{
    broken_override = on;
}

bool
brokenRule()
{
    return broken_override.value_or(brokenFromEnv());
}

} // namespace saturation_testing

SaturationResult
saturateForcedCo(Relation &forcedCo, const Relation &poLoc,
                 const Relation &rf, const Relation &rmw,
                 const Relation &intRel,
                 const std::vector<std::vector<EventId>> &writesByLoc,
                 const std::vector<EventId> &initWrites,
                 SaturationSupport support, SaturationScratch &scratch)
{
    SaturationResult res;
    const std::size_t n = forcedCo.size();

    // Init edges are forced in every coherence order by definition:
    // the initial write of a location precedes every other write to
    // it.  These do not count toward forcedEdges.
    std::size_t init_edges = 0;
    for (std::size_t l = 0; l < writesByLoc.size(); ++l) {
        for (EventId w : writesByLoc[l]) {
            forcedCo.add(initWrites[l], w);
            ++init_edges;
        }
    }
    if (!support.coherence || n == 0)
        return res;

    const bool broken = saturation_testing::brokenRule();

    // Location of every write, for the atomicity pass.  The maps
    // live in the scratch: refilled per rf, never reallocated.
    std::vector<std::size_t> &write_loc = scratch.writeLoc;
    std::fill(write_loc.begin(), write_loc.end(),
              static_cast<std::size_t>(-1));
    for (std::size_t l = 0; l < writesByLoc.size(); ++l) {
        write_loc[initWrites[l]] = l;
        for (EventId w : writesByLoc[l])
            write_loc[w] = l;
    }

    // The write each read reads from (every read has one).
    std::vector<EventId> &rf_src = scratch.rfSrc;
    std::fill(rf_src.begin(), rf_src.end(), static_cast<EventId>(n));
    forEachPair(rf, [&](EventId w, EventId r) { rf_src[r] = w; });

    bool changed = true;
    while (changed) {
        changed = false;
        ++res.rounds;

        // C = (po-loc | rf | forced-co | forced-fr)+ with
        // fr = rf^-1 ; co over the forced edges only.
        rel::inverseInto(scratch.inv, rf);
        rel::composeInto(scratch.fr, scratch.inv, forcedCo);
        rel::unionInto(scratch.closure, poLoc, rf);
        rel::unionInto(scratch.closure, scratch.closure, forcedCo);
        rel::unionInto(scratch.closure, scratch.closure, scratch.fr);
        rel::closureInPlace(scratch.closure);

        // The forced graph being cyclic already refutes every
        // extension (forced edges belong to all of them).
        if (!scratch.closure.irreflexive()) {
            res.contradiction = true;
            return res;
        }

        // Coherence forcing over the still-open same-location pairs.
        for (std::size_t l = 0; l < writesByLoc.size(); ++l) {
            const auto &ws = writesByLoc[l];
            for (std::size_t i = 0; i < ws.size(); ++i) {
                for (std::size_t j = i + 1; j < ws.size(); ++j) {
                    const EventId a = ws[i];
                    const EventId b = ws[j];
                    if (forcedCo.contains(a, b) ||
                        forcedCo.contains(b, a)) {
                        continue;
                    }
                    const bool ba_dead =
                        coImpossible(scratch.closure, rf, b, a);
                    const bool ab_dead =
                        coImpossible(scratch.closure, rf, a, b);
                    if (ab_dead && ba_dead) {
                        res.contradiction = true;
                        return res;
                    }
                    if (ba_dead) {
                        forcedCo.add(a, b);
                        changed = true;
                    } else if (ab_dead) {
                        forcedCo.add(b, a);
                        changed = true;
                    } else if (broken &&
                               !intRel.contains(a, b)) {
                        // Deliberately unsound (test hook): pretend
                        // cross-thread pairs are forced into
                        // event-id order.
                        forcedCo.add(a, b);
                        changed = true;
                    }
                }
            }
        }

        // Atomicity forcing: for an rmw pair (r, w) reading from
        // w0, the axiom forbids fre(r, w') ; coe(w', w), i.e.
        // co(w0, w') together with co(w', w) for an external w'.
        if (support.atomicity) {
            forEachPair(rmw, [&](EventId r, EventId w) {
                if (res.contradiction)
                    return;
                const EventId w0 = rf_src[r];
                if (w0 >= n || write_loc[w] >= writesByLoc.size())
                    return;
                const std::size_t l = write_loc[w];
                auto scanW = [&](EventId wp) {
                    if (wp == w0 || wp == w)
                        return;
                    // fre needs r and w' in different threads, coe
                    // needs w' and w in different threads.
                    if (intRel.contains(r, wp) ||
                        intRel.contains(wp, w)) {
                        return;
                    }
                    if (forcedCo.contains(w0, wp)) {
                        // co(w', w) is impossible now.
                        if (forcedCo.contains(wp, w)) {
                            res.contradiction = true;
                            return;
                        }
                        if (!forcedCo.contains(w, wp)) {
                            forcedCo.add(w, wp);
                            changed = true;
                        }
                    }
                    if (forcedCo.contains(wp, w)) {
                        // co(w0, w') is impossible now.
                        if (forcedCo.contains(w0, wp)) {
                            res.contradiction = true;
                            return;
                        }
                        if (wp != initWrites[l] &&
                            !forcedCo.contains(wp, w0)) {
                            forcedCo.add(wp, w0);
                            changed = true;
                        }
                    }
                };
                scanW(initWrites[l]);
                for (EventId wp : writesByLoc[l])
                    scanW(wp);
            });
            if (res.contradiction)
                return res;
        }
    }

    res.forcedEdges = forcedCo.count() - init_edges;
    return res;
}

} // namespace lkmm::rel
