#include "base/status.hh"

namespace lkmm
{

const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok: return "ok";
      case StatusCode::ParseError: return "parse-error";
      case StatusCode::EvalError: return "eval-error";
      case StatusCode::BudgetExceeded: return "budget-exceeded";
      case StatusCode::InvalidArgument: return "invalid-argument";
      case StatusCode::IoError: return "io-error";
      case StatusCode::Internal: return "internal";
    }
    return "unknown";
}

std::optional<StatusCode>
statusCodeFromName(const std::string &name)
{
    for (int i = 0; i < kNumStatusCodes; ++i) {
        const StatusCode code = static_cast<StatusCode>(i);
        if (name == statusCodeName(code))
            return code;
    }
    return std::nullopt;
}

std::string
Status::toString() const
{
    if (isOk())
        return "ok";
    std::string s = statusCodeName(code_);
    if (!message_.empty()) {
        s += ": ";
        s += message_;
    }
    return s;
}

ParseError::ParseError(const std::string &what, int line, int column,
                       std::string token)
    : StatusError(Status(StatusCode::ParseError,
                         what + " at " + std::to_string(line) + ":" +
                             std::to_string(column) + " (near '" + token +
                             "')")),
      line_(line), column_(column), token_(std::move(token))
{
}

Status
statusOf(const std::exception &e)
{
    if (auto *se = dynamic_cast<const StatusError *>(&e))
        return se->status();
    if (dynamic_cast<const PanicError *>(&e))
        return Status(StatusCode::Internal, e.what());
    if (dynamic_cast<const FatalError *>(&e))
        return Status(StatusCode::InvalidArgument, e.what());
    return Status(StatusCode::Internal, e.what());
}

} // namespace lkmm
