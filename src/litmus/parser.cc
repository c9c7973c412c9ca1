#include "litmus/parser.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>

#include "base/faultinject.hh"
#include "base/logging.hh"
#include "base/status.hh"

namespace lkmm
{

namespace
{

/** Character-level cursor with litmus-comment skipping. */
class Cursor
{
  public:
    explicit Cursor(const std::string &src) : src_(src) {}

    void
    skipSpace()
    {
        for (;;) {
            while (pos_ < src_.size() &&
                   std::isspace(static_cast<unsigned char>(src_[pos_]))) {
                if (src_[pos_] == '\n') {
                    ++line_;
                    lineStart_ = pos_ + 1;
                }
                ++pos_;
            }
            if (pos_ + 1 < src_.size() && src_[pos_] == '/' &&
                src_[pos_ + 1] == '/') {
                while (pos_ < src_.size() && src_[pos_] != '\n')
                    ++pos_;
                continue;
            }
            if (pos_ + 1 < src_.size() && src_[pos_] == '/' &&
                src_[pos_ + 1] == '*') {
                pos_ += 2;
                while (pos_ + 1 < src_.size() &&
                       !(src_[pos_] == '*' && src_[pos_ + 1] == '/')) {
                    if (src_[pos_] == '\n') {
                        ++line_;
                        lineStart_ = pos_ + 1;
                    }
                    ++pos_;
                }
                pos_ = std::min(pos_ + 2, src_.size());
                continue;
            }
            break;
        }
    }

    /** 1-based column of the cursor on its current line. */
    int
    column() const
    {
        return static_cast<int>(pos_ - lineStart_) + 1;
    }

    /** The token under the cursor, for error messages. */
    std::string
    nearToken() const
    {
        if (pos_ >= src_.size())
            return "end of input";
        std::size_t end = pos_;
        if (std::isalnum(static_cast<unsigned char>(src_[end])) ||
            src_[end] == '_') {
            while (end < src_.size() &&
                   (std::isalnum(static_cast<unsigned char>(src_[end])) ||
                    src_[end] == '_')) {
                ++end;
            }
        } else {
            ++end;
        }
        return src_.substr(pos_, end - pos_);
    }

    /**
     * Report a syntax error at the next token, with line, column
     * and the offending token text.
     */
    [[noreturn]] void
    error(const std::string &what)
    {
        skipSpace();
        throw ParseError("litmus parser: " + what, line_, column(),
                         nearToken());
    }

    bool
    atEnd()
    {
        skipSpace();
        return pos_ >= src_.size();
    }

    char
    peek()
    {
        skipSpace();
        return pos_ < src_.size() ? src_[pos_] : '\0';
    }

    /** Peek without skipping whitespace first (for tight tokens). */
    char
    rawPeek() const
    {
        return pos_ < src_.size() ? src_[pos_] : '\0';
    }

    char
    get()
    {
        skipSpace();
        if (pos_ >= src_.size())
            error("unexpected end of input");
        return src_[pos_++];
    }

    bool
    tryConsume(const std::string &token)
    {
        skipSpace();
        if (src_.compare(pos_, token.size(), token) != 0)
            return false;
        // Keyword tokens must not swallow identifier prefixes.
        if (!token.empty() &&
            (std::isalnum(static_cast<unsigned char>(token.back())) ||
             token.back() == '_')) {
            const std::size_t next = pos_ + token.size();
            if (next < src_.size() &&
                (std::isalnum(static_cast<unsigned char>(src_[next])) ||
                 src_[next] == '_')) {
                return false;
            }
        }
        pos_ += token.size();
        return true;
    }

    void
    expect(const std::string &token)
    {
        if (!tryConsume(token))
            error("expected '" + token + "'");
    }

    std::string
    ident()
    {
        skipSpace();
        std::size_t start = pos_;
        while (pos_ < src_.size() &&
               (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
                src_[pos_] == '_')) {
            ++pos_;
        }
        if (start == pos_)
            error("expected identifier");
        return src_.substr(start, pos_ - start);
    }

    long long
    number()
    {
        skipSpace();
        std::size_t start = pos_;
        if (pos_ < src_.size() && src_[pos_] == '-')
            ++pos_;
        std::size_t digits_start = pos_;
        while (pos_ < src_.size() &&
               std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
            ++pos_;
        }
        if (digits_start == pos_) {
            pos_ = start;
            error("expected number");
        }
        return std::stoll(src_.substr(start, pos_ - start));
    }

    int line() const { return line_; }

  private:
    const std::string &src_;
    std::size_t pos_ = 0;
    std::size_t lineStart_ = 0;
    int line_ = 1;
};

/**
 * Adversarial (fuzzed) inputs can nest parentheses, if-blocks, or ~
 * arbitrarily deep; bound the recursive descent so they fail with a
 * ParseError instead of overflowing the stack.
 */
constexpr int kMaxNesting = 200;

class LitmusParser
{
  public:
    explicit LitmusParser(const std::string &src) : cur_(src) {}

    Program
    parse()
    {
        cur_.expect("C");
        // Test name: the rest of the identifier-ish token (allow
        // +, -, . inside names).
        prog_.name = testName();

        if (cur_.peek() == '{')
            parseInit();

        while (cur_.peek() == 'P')
            parseThread();

        if (cur_.tryConsume("exists")) {
            prog_.quantifier = Quantifier::Exists;
            prog_.condition = parseCond();
        } else if (cur_.tryConsume("forall")) {
            prog_.quantifier = Quantifier::Forall;
            prog_.condition = parseCond();
        } else {
            cur_.error("expected exists/forall clause");
        }
        return std::move(prog_);
    }

  private:
    std::string
    testName()
    {
        std::string name;
        // Consume until whitespace.
        while (!cur_.atEnd() &&
               !std::isspace(static_cast<unsigned char>(cur_.rawPeek()))) {
            name += cur_.get();
            if (std::isspace(static_cast<unsigned char>(cur_.rawPeek())))
                break;
        }
        return name;
    }

    LocId
    loc(const std::string &name)
    {
        for (std::size_t i = 0; i < prog_.locNames.size(); ++i) {
            if (prog_.locNames[i] == name)
                return static_cast<LocId>(i);
        }
        prog_.locNames.push_back(name);
        return static_cast<LocId>(prog_.locNames.size() - 1);
    }

    void
    parseInit()
    {
        cur_.expect("{");
        while (!cur_.tryConsume("}")) {
            // Optional type keywords.
            cur_.tryConsume("int");
            while (cur_.tryConsume("*")) {}
            std::string name = cur_.ident();
            if (cur_.tryConsume("=")) {
                if (cur_.tryConsume("&")) {
                    std::string target = cur_.ident();
                    prog_.init[loc(name)] = locToValue(loc(target));
                } else {
                    prog_.init[loc(name)] = cur_.number();
                }
            } else {
                loc(name);
            }
            cur_.tryConsume(";");
        }
    }

    // Thread parsing -----------------------------------------------

    struct ThreadCtx
    {
        Thread thread;
        std::map<std::string, RegId> regs;
    };

    RegId
    regOf(ThreadCtx &ctx, const std::string &name)
    {
        auto it = ctx.regs.find(name);
        if (it != ctx.regs.end())
            return it->second;
        const RegId r = ctx.thread.numRegs++;
        ctx.regs.emplace(name, r);
        return r;
    }

    void
    parseThread()
    {
        const std::string header = cur_.ident();
        bool well_formed = header.size() >= 2 && header[0] == 'P';
        for (std::size_t i = 1; well_formed && i < header.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(header[i])))
                well_formed = false;
        }
        if (!well_formed) {
            cur_.error("expected thread header Pn, got '" + header +
                       "'");
        }
        const long long index = std::stoll(header.substr(1));
        if (index != static_cast<long long>(prog_.threads.size())) {
            cur_.error("thread indices must be consecutive, got '" +
                       header + "' for thread " +
                       std::to_string(prog_.threads.size()));
        }
        // Parameter list: declares the shared locations (ignored
        // beyond registering names).
        cur_.expect("(");
        while (!cur_.tryConsume(")")) {
            cur_.tryConsume("int");
            while (cur_.tryConsume("*")) {}
            loc(cur_.ident());
            cur_.tryConsume(",");
        }

        ThreadCtx ctx;
        cur_.expect("{");
        parseBlock(ctx, ctx.thread.body);
        prog_.threads.push_back(std::move(ctx.thread));
        regNames_.push_back(std::move(ctx.regs));
    }

    void
    parseBlock(ThreadCtx &ctx, std::vector<Instr> &out)
    {
        while (!cur_.tryConsume("}"))
            parseStatement(ctx, out);
    }

    /** Is this identifier a known shared location? */
    bool
    isLoc(const std::string &name) const
    {
        for (const std::string &n : prog_.locNames) {
            if (n == name)
                return true;
        }
        return false;
    }

    /** Address expression: *x, *reg, x, x[e], or &x (value). */
    Expr
    parseAddr(ThreadCtx &ctx)
    {
        if (cur_.tryConsume("*")) {
            std::string name = cur_.ident();
            if (isLoc(name))
                return Expr::locRef(loc(name));
            // Dereference of a register holding a pointer.
            return Expr::reg(regOf(ctx, name));
        }
        if (cur_.tryConsume("&")) {
            std::string name = cur_.ident();
            return Expr::locRef(loc(name));
        }
        std::string name = cur_.ident();
        if (cur_.tryConsume("[")) {
            Expr idx = parseExpr(ctx);
            cur_.expect("]");
            return Expr::index(loc(name), std::move(idx));
        }
        if (isLoc(name))
            return Expr::locRef(loc(name));
        return Expr::reg(regOf(ctx, name));
    }

    /** RAII recursion-depth bound; see kMaxNesting. */
    class DepthGuard
    {
      public:
        DepthGuard(int &depth, Cursor &cur) : depth_(depth)
        {
            if (++depth_ > kMaxNesting) {
                cur.error("nesting deeper than " +
                          std::to_string(kMaxNesting) + " levels");
            }
        }
        ~DepthGuard() { --depth_; }

      private:
        int &depth_;
    };

    Expr
    parsePrimary(ThreadCtx &ctx)
    {
        DepthGuard guard(depth_, cur_);
        const char c = cur_.peek();
        if (c == '(') {
            cur_.expect("(");
            Expr e = parseExpr(ctx);
            cur_.expect(")");
            return e;
        }
        if (c == '!') {
            cur_.expect("!");
            return Expr::notOf(parsePrimary(ctx));
        }
        if (c == '&') {
            cur_.expect("&");
            return Expr::locRef(loc(cur_.ident()));
        }
        if (std::isdigit(static_cast<unsigned char>(c)) || c == '-')
            return Expr::constant(cur_.number());
        std::string name = cur_.ident();
        return Expr::reg(regOf(ctx, name));
    }

    Expr
    parseExpr(ThreadCtx &ctx)
    {
        Expr lhs = parsePrimary(ctx);
        for (;;) {
            Expr::Op op;
            if (cur_.tryConsume("=="))
                op = Expr::Op::Eq;
            else if (cur_.tryConsume("!="))
                op = Expr::Op::Ne;
            else if (cur_.tryConsume("<="))
                op = Expr::Op::Le;
            else if (cur_.tryConsume(">="))
                op = Expr::Op::Ge;
            else if (cur_.tryConsume("+"))
                op = Expr::Op::Add;
            else if (cur_.tryConsume("-"))
                op = Expr::Op::Sub;
            else if (cur_.tryConsume("^"))
                op = Expr::Op::Xor;
            else if (cur_.peek() == '&')
                break; // & is address-of in this grammar
            else if (cur_.tryConsume("|"))
                op = Expr::Op::Or;
            else if (cur_.tryConsume("<"))
                op = Expr::Op::Lt;
            else if (cur_.tryConsume(">"))
                op = Expr::Op::Gt;
            else
                break;
            lhs = Expr::binary(op, std::move(lhs), parsePrimary(ctx));
        }
        return lhs;
    }

    void
    parseStatement(ThreadCtx &ctx, std::vector<Instr> &out)
    {
        DepthGuard guard(depth_, cur_);
        // if (...) { ... } [else { ... }]
        if (cur_.tryConsume("if")) {
            Instr ins;
            ins.kind = Instr::Kind::If;
            cur_.expect("(");
            ins.cond = parseExpr(ctx);
            cur_.expect(")");
            cur_.expect("{");
            parseBlock(ctx, ins.thenBody);
            if (cur_.tryConsume("else")) {
                cur_.expect("{");
                parseBlock(ctx, ins.elseBody);
            }
            out.push_back(std::move(ins));
            return;
        }

        // Store-like calls.
        if (tryStore(ctx, out, "WRITE_ONCE", Ann::Once) ||
            tryStore(ctx, out, "smp_store_release", Ann::Release) ||
            tryStore(ctx, out, "rcu_assign_pointer", Ann::Release)) {
            return;
        }

        // Fences.
        static const std::pair<const char *, Ann> fences[] = {
            {"smp_read_barrier_depends", Ann::RbDep},
            {"smp_rmb", Ann::Rmb},
            {"smp_wmb", Ann::Wmb},
            {"smp_mb", Ann::Mb},
            {"rcu_read_lock", Ann::RcuLock},
            {"rcu_read_unlock", Ann::RcuUnlock},
            {"synchronize_rcu", Ann::SyncRcu},
        };
        for (auto [name, ann] : fences) {
            if (cur_.tryConsume(name)) {
                cur_.expect("(");
                cur_.expect(")");
                cur_.expect(";");
                Instr ins;
                ins.kind = Instr::Kind::Fence;
                ins.ann = ann;
                out.push_back(std::move(ins));
                return;
            }
        }

        // Locking (Section 7 emulation).
        if (cur_.tryConsume("spin_lock")) {
            cur_.expect("(");
            Expr addr = parseAddr(ctx);
            cur_.expect(")");
            cur_.expect(";");
            Instr ins;
            ins.kind = Instr::Kind::Rmw;
            ins.addr = std::move(addr);
            ins.value = Expr::constant(1);
            ins.dest = ctx.thread.numRegs++;
            ins.readAnn = Ann::Acquire;
            ins.writeAnn = Ann::Once;
            ins.requireReadValue = 0;
            out.push_back(std::move(ins));
            return;
        }
        if (cur_.tryConsume("spin_unlock")) {
            cur_.expect("(");
            Expr addr = parseAddr(ctx);
            cur_.expect(")");
            cur_.expect(";");
            Instr ins;
            ins.kind = Instr::Kind::Write;
            ins.ann = Ann::Release;
            ins.addr = std::move(addr);
            ins.value = Expr::constant(0);
            out.push_back(std::move(ins));
            return;
        }

        // Register assignment: [int] r = <rhs>;
        cur_.tryConsume("int");
        std::string reg_name = cur_.ident();
        const RegId dest = regOf(ctx, reg_name);
        cur_.expect("=");
        parseAssignmentRhs(ctx, out, dest);
        cur_.expect(";");
    }

    bool
    tryStore(ThreadCtx &ctx, std::vector<Instr> &out,
             const std::string &fn, Ann ann)
    {
        if (!cur_.tryConsume(fn))
            return false;
        cur_.expect("(");
        Expr addr = parseAddr(ctx);
        cur_.expect(",");
        Expr value = parseExpr(ctx);
        cur_.expect(")");
        cur_.expect(";");
        Instr ins;
        ins.kind = Instr::Kind::Write;
        ins.ann = ann;
        ins.addr = std::move(addr);
        ins.value = std::move(value);
        out.push_back(std::move(ins));
        return true;
    }

    void
    parseAssignmentRhs(ThreadCtx &ctx, std::vector<Instr> &out,
                       RegId dest)
    {
        struct Load
        {
            const char *fn;
            Ann ann;
            bool rbDep;
        };
        static const Load loads[] = {
            {"READ_ONCE", Ann::Once, false},
            {"smp_load_acquire", Ann::Acquire, false},
            {"rcu_dereference", Ann::Once, true},
        };
        for (const Load &ld : loads) {
            if (cur_.tryConsume(ld.fn)) {
                cur_.expect("(");
                Expr addr = parseAddr(ctx);
                cur_.expect(")");
                Instr ins;
                ins.kind = Instr::Kind::Read;
                ins.ann = ld.ann;
                ins.addr = std::move(addr);
                ins.dest = dest;
                ins.rbDepAfter = ld.rbDep;
                out.push_back(std::move(ins));
                return;
            }
        }

        struct Xchg
        {
            const char *fn;
            Ann readAnn;
            Ann writeAnn;
            bool full;
        };
        static const Xchg xchgs[] = {
            {"xchg_relaxed", Ann::Once, Ann::Once, false},
            {"xchg_acquire", Ann::Acquire, Ann::Once, false},
            {"xchg_release", Ann::Once, Ann::Release, false},
            {"xchg", Ann::Once, Ann::Once, true},
        };
        for (const Xchg &x : xchgs) {
            if (cur_.tryConsume(x.fn)) {
                cur_.expect("(");
                Expr addr = parseAddr(ctx);
                cur_.expect(",");
                Expr value = parseExpr(ctx);
                cur_.expect(")");
                Instr ins;
                ins.kind = Instr::Kind::Rmw;
                ins.addr = std::move(addr);
                ins.value = std::move(value);
                ins.dest = dest;
                ins.rmwOp = RmwOp::Xchg;
                ins.readAnn = x.readAnn;
                ins.writeAnn = x.writeAnn;
                ins.fullFence = x.full;
                out.push_back(std::move(ins));
                return;
            }
        }

        if (cur_.tryConsume("atomic_add_return")) {
            cur_.expect("(");
            Expr value = parseExpr(ctx);
            cur_.expect(",");
            Expr addr = parseAddr(ctx);
            cur_.expect(")");
            // Returns the *new* value: old + operand.
            const RegId old = ctx.thread.numRegs++;
            Instr ins;
            ins.kind = Instr::Kind::Rmw;
            ins.addr = std::move(addr);
            ins.value = value;
            ins.dest = old;
            ins.rmwOp = RmwOp::Add;
            ins.fullFence = true;
            out.push_back(std::move(ins));
            Instr let;
            let.kind = Instr::Kind::Let;
            let.dest = dest;
            let.value = Expr::binary(Expr::Op::Add, Expr::reg(old),
                                     std::move(value));
            out.push_back(std::move(let));
            return;
        }

        if (cur_.tryConsume("cmpxchg")) {
            cur_.expect("(");
            Expr addr = parseAddr(ctx);
            cur_.expect(",");
            Expr expected = parseExpr(ctx);
            cur_.expect(",");
            Expr value = parseExpr(ctx);
            cur_.expect(")");
            Instr ins;
            ins.kind = Instr::Kind::Cmpxchg;
            ins.addr = std::move(addr);
            ins.expected = std::move(expected);
            ins.value = std::move(value);
            ins.dest = dest;
            ins.fullFence = true;
            out.push_back(std::move(ins));
            return;
        }

        // Plain register computation.
        Instr ins;
        ins.kind = Instr::Kind::Let;
        ins.dest = dest;
        ins.value = parseExpr(ctx);
        out.push_back(std::move(ins));
    }

    // Condition parsing ---------------------------------------------

    Cond
    parseCondAtom()
    {
        DepthGuard guard(depth_, cur_);
        if (cur_.tryConsume("~"))
            return Cond::notOf(parseCondAtom());
        if (cur_.tryConsume("(")) {
            Cond c = parseCond();
            cur_.expect(")");
            return c;
        }
        if (cur_.tryConsume("true"))
            return Cond::trueCond();

        // t:reg=v or loc=v.
        if (std::isdigit(static_cast<unsigned char>(cur_.peek()))) {
            const long long t = cur_.number();
            cur_.expect(":");
            std::string reg_name = cur_.ident();
            cur_.expect("=");
            if (t < 0 || t >= static_cast<long long>(regNames_.size())) {
                cur_.error("bad thread id " + std::to_string(t) +
                           " in condition (" +
                           std::to_string(regNames_.size()) +
                           " threads)");
            }
            auto it = regNames_[t].find(reg_name);
            if (it == regNames_[t].end()) {
                cur_.error("unknown register " + std::to_string(t) +
                           ":" + reg_name + " in condition");
            }
            return Cond::regEq(static_cast<int>(t), it->second,
                               condValue());
        }

        std::string name = cur_.ident();
        cur_.expect("=");
        if (!isLoc(name))
            cur_.error("unknown location '" + name + "' in condition");
        return Cond::memEq(loc(name), condValue());
    }

    Value
    condValue()
    {
        if (cur_.tryConsume("&"))
            return locToValue(loc(cur_.ident()));
        return cur_.number();
    }

    Cond
    parseCond()
    {
        Cond lhs = parseCondAtom();
        for (;;) {
            if (cur_.tryConsume("/\\")) {
                lhs = Cond::andOf(std::move(lhs), parseCondAtom());
            } else if (cur_.tryConsume("\\/")) {
                lhs = Cond::orOf(std::move(lhs), parseCondAtom());
            } else {
                break;
            }
        }
        return lhs;
    }

    Cursor cur_;
    Program prog_;
    /** Current recursion depth, bounded by kMaxNesting. */
    int depth_ = 0;
    /** Per-thread register-name tables for the condition. */
    std::vector<std::map<std::string, RegId>> regNames_;
};

} // namespace

Program
parseLitmus(const std::string &source)
{
    faultinject::checkSite(faultinject::site::kLitmusParse,
                           "parseLitmus");
    LitmusParser parser(source);
    return parser.parse();
}

Program
parseLitmusFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw StatusError(Status(StatusCode::IoError,
                                 "cannot open litmus file: " + path));
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseLitmus(ss.str());
}

} // namespace lkmm
