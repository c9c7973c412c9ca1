/**
 * @file
 * Error/status taxonomy for API boundaries.
 *
 * Internally the library keeps the gem5-style fatal()/panic()
 * convention (see logging.hh), but a bare FatalError carries no
 * machine-readable classification: a catalog sweep cannot tell a
 * parse error from an exhausted budget from a simulator bug.  Status
 * is the structured form used at API boundaries — most importantly
 * by the batch runner (lkmm/batch.hh), which converts every escaped
 * exception into a Status so that one bad test cannot abort a sweep.
 *
 * StatusError is the bridge: an exception carrying a Status, derived
 * from FatalError so existing catch sites and tests keep working.
 * ParseError further adds line/column/token information for the
 * litmus and cat parsers.
 */

#ifndef LKMM_BASE_STATUS_HH
#define LKMM_BASE_STATUS_HH

#include <exception>
#include <optional>
#include <string>

#include "base/logging.hh"

namespace lkmm
{

/** Machine-readable classification of an error. */
enum class StatusCode
{
    Ok,
    /** Malformed litmus/cat input (syntax). */
    ParseError,
    /** Well-formed input the evaluator cannot process (semantics). */
    EvalError,
    /** A RunBudget bound or cancellation tripped (see budget.hh). */
    BudgetExceeded,
    /** Bad argument to an API (unknown test name, bad options). */
    InvalidArgument,
    /** Missing or unreadable file. */
    IoError,
    /** An internal invariant was violated (a bug, not user error). */
    Internal,
};

constexpr int kNumStatusCodes = 7;

/** Short stable name, e.g. "parse-error". */
const char *statusCodeName(StatusCode code);

/** Inverse of statusCodeName; nullopt for unknown names. */
std::optional<StatusCode> statusCodeFromName(const std::string &name);

/** An error code plus a human-readable message. */
class Status
{
  public:
    Status() = default;
    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    static Status ok() { return Status(); }

    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }
    bool isOk() const { return code_ == StatusCode::Ok; }

    /** "parse-error: expected ')' at 3:14". */
    std::string toString() const;

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/** An exception carrying a structured Status. */
class StatusError : public FatalError
{
  public:
    explicit StatusError(Status status)
        : FatalError(status.toString()), status_(std::move(status))
    {}

    const Status &status() const { return status_; }

  private:
    Status status_;
};

/**
 * A syntax error with source coordinates.
 *
 * Thrown by the litmus and cat parsers; line and column are
 * 1-based, token is the offending token text (or "end of input").
 */
class ParseError : public StatusError
{
  public:
    ParseError(const std::string &what, int line, int column,
               std::string token);

    int line() const { return line_; }
    int column() const { return column_; }
    const std::string &token() const { return token_; }

  private:
    int line_;
    int column_;
    std::string token_;
};

/**
 * Classify an exception caught at an API boundary.
 *
 * StatusError keeps its embedded status; FatalError maps to
 * InvalidArgument (user error by convention); PanicError and any
 * other std::exception map to Internal.
 */
Status statusOf(const std::exception &e);

} // namespace lkmm

#endif // LKMM_BASE_STATUS_HH
