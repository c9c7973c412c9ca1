/**
 * @file
 * Evaluation of cat models against candidate executions — the herd
 * side of "formal executable model".
 *
 * CatModel implements the Model interface.  Loading parses the file
 * and lowers it once (cat/lower.hh) into a slot program whose names
 * are resolved, functions expanded, kinds checked and recursion
 * proven to terminate, so a bad model fails at load with a
 * ParseError.  check() then runs that program per candidate.  The
 * predefined scope provides the cat builtins (po, rf, co, fr, loc,
 * int, ext, id, W, R, F, M, _, rfi/rfe/..., po-loc, com) plus the
 * LK-specific annotation sets of Tables 3 and 4 (Once, Acquire,
 * Release, Rmb, Wmb, Mb, Rb-dep, Rcu-lock, Rcu-unlock, Sync-rcu)
 * and the crit relation.  Builtin functions: fencerel(S),
 * domain(r), range(r).
 */

#ifndef LKMM_CAT_EVAL_HH
#define LKMM_CAT_EVAL_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cat/lower.hh"
#include "model/model.hh"

namespace lkmm
{

/** A consistency model loaded from a cat file. */
class CatModel : public Model
{
  public:
    /** Load from source text. */
    static CatModel fromSource(const std::string &source,
                               const std::string &name = "cat");

    /** Load from a file on disk. */
    static CatModel fromFile(const std::string &path);

    /** Shares the immutable program; starts with no frames. */
    CatModel(const CatModel &other);
    CatModel &operator=(const CatModel &) = delete;
    ~CatModel() override;

    std::string name() const override { return name_; }

    std::optional<Violation>
    check(const CandidateExecution &ex) const override;

    /**
     * Derived from the lowered program at load time
     * (cat/classify.hh): conservative, so hand-written cat input
     * only ever loses rf-first pruning, never soundness.
     */
    rel::SaturationSupport
    saturationSupport() const override
    {
        return support_;
    }

    /**
     * Evaluate all definitions and return the final environment —
     * every builtin and every top-level binding by name.  Used by
     * tests to compare individual cat relations against the native
     * C++ ones.
     */
    std::map<std::string, cat::CatValue>
    evalBindings(const CandidateExecution &ex) const;

  private:
    CatModel(const cat::CatFile &file, const std::string &fallbackName);

    /**
     * The slot values of one run of the program, kept across
     * check() calls.  The enumerator delivers candidates grouped by
     * path combo and, within a combo, by rf assignment, so a frame
     * reuses its Static ops while the execution's static inputs
     * match the ones it last saw, and its Rf ops while rf and the
     * locations match too.  Matching compares the inputs directly,
     * never a hash: a collision would silently change a verdict.
     */
    struct Frame;

    std::string name_;
    std::shared_ptr<const cat::SlotProgram> program_;
    rel::SaturationSupport support_;

    /**
     * Idle frames of this instance.  The lock only guards taking
     * and returning one, so concurrent checks each run on their own
     * frame.  A frame whose run threw is dropped, not returned.
     */
    mutable std::mutex poolMutex_;
    mutable std::vector<std::unique_ptr<Frame>> pool_;
};

} // namespace lkmm

#endif // LKMM_CAT_EVAL_HH
