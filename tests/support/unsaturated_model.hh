/**
 * @file
 * A forwarding Model that withdraws saturation support.
 *
 * name() and check() go to the wrapped model; saturationSupport()
 * promises nothing.  Under it the rf-first engine derives no forced
 * co edges, rejects no rf assignment by saturation, and so delivers
 * the brute reference's candidate stream — the staged engine with
 * its saturation layer switched off.  The identity harness, the
 * conformance suite and BM_VerifyScale use it to check and measure
 * the two layers separately.
 */

#ifndef LKMM_TESTS_SUPPORT_UNSATURATED_MODEL_HH
#define LKMM_TESTS_SUPPORT_UNSATURATED_MODEL_HH

#include "model/model.hh"

namespace lkmm
{

class UnsaturatedModel : public Model
{
  public:
    explicit UnsaturatedModel(const Model &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }

    std::optional<Violation>
    check(const CandidateExecution &ex) const override
    {
        return inner_.check(ex);
    }

    rel::SaturationSupport saturationSupport() const override { return {}; }

  private:
    const Model &inner_;
};

} // namespace lkmm

#endif // LKMM_TESTS_SUPPORT_UNSATURATED_MODEL_HH
