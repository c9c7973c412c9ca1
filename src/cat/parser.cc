#include "cat/parser.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "base/faultinject.hh"
#include "base/logging.hh"
#include "base/status.hh"

namespace lkmm::cat
{

namespace
{

enum class Tok
{
    End,
    Ident,      // including keywords; classified by text
    String,     // "model name"
    Pipe,       // |
    Amp,        // &
    Backslash,  // '\'
    Semi,       // ;
    Star,       // *
    Plus,       // +
    Question,   // ?
    Inverse,    // ^-1
    Tilde,      // ~
    LParen,
    RParen,
    LBracket,
    RBracket,
    Equals,
    Comma,
};

struct Token
{
    Tok kind;
    std::string text;
    int line;
    int col;
};

class Lexer
{
  public:
    explicit Lexer(const std::string &src) : src_(src) { advance(); }

    const Token &peek() const { return tok_; }

    Token
    next()
    {
        Token t = tok_;
        advance();
        return t;
    }

  private:
    void
    advance()
    {
        skipSpaceAndComments();
        const int col = column();
        if (pos_ >= src_.size()) {
            tok_ = {Tok::End, "", line_, col};
            return;
        }
        const char c = src_[pos_];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::size_t start = pos_;
            while (pos_ < src_.size() && isIdentChar(src_[pos_]))
                ++pos_;
            tok_ = {Tok::Ident, src_.substr(start, pos_ - start), line_,
                    col};
            return;
        }
        if (c == '"') {
            std::size_t start = ++pos_;
            while (pos_ < src_.size() && src_[pos_] != '"') {
                if (src_[pos_] == '\n') {
                    throw ParseError("cat lexer: unterminated string",
                                     line_, col, "\"");
                }
                ++pos_;
            }
            if (pos_ >= src_.size()) {
                throw ParseError("cat lexer: unterminated string",
                                 line_, col, "\"");
            }
            tok_ = {Tok::String, src_.substr(start, pos_ - start), line_,
                    col};
            ++pos_; // closing quote
            return;
        }
        if (c == '^' && src_.compare(pos_, 3, "^-1") == 0) {
            pos_ += 3;
            tok_ = {Tok::Inverse, "^-1", line_, col};
            return;
        }
        ++pos_;
        switch (c) {
          case '|': tok_ = {Tok::Pipe, "|", line_, col}; return;
          case '&': tok_ = {Tok::Amp, "&", line_, col}; return;
          case '\\': tok_ = {Tok::Backslash, "\\", line_, col}; return;
          case ';': tok_ = {Tok::Semi, ";", line_, col}; return;
          case '*': tok_ = {Tok::Star, "*", line_, col}; return;
          case '+': tok_ = {Tok::Plus, "+", line_, col}; return;
          case '?': tok_ = {Tok::Question, "?", line_, col}; return;
          case '~': tok_ = {Tok::Tilde, "~", line_, col}; return;
          case '(': tok_ = {Tok::LParen, "(", line_, col}; return;
          case ')': tok_ = {Tok::RParen, ")", line_, col}; return;
          case '[': tok_ = {Tok::LBracket, "[", line_, col}; return;
          case ']': tok_ = {Tok::RBracket, "]", line_, col}; return;
          case '=': tok_ = {Tok::Equals, "=", line_, col}; return;
          case ',': tok_ = {Tok::Comma, ",", line_, col}; return;
          default:
            throw ParseError("cat lexer: unexpected character", line_,
                             col, std::string(1, c));
        }
    }

    int
    column() const
    {
        return static_cast<int>(pos_ - lineStart_) + 1;
    }

    static bool
    isIdentChar(char c)
    {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '-' || c == '.';
    }

    void
    skipSpaceAndComments()
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
            // (* ... *) comments, possibly nested.
            if (pos_ + 1 < src_.size() && src_[pos_] == '(' &&
                src_[pos_ + 1] == '*') {
                int depth = 1;
                pos_ += 2;
                while (pos_ < src_.size() && depth > 0) {
                    if (src_[pos_] == '\n') {
                        ++line_;
                        lineStart_ = pos_ + 1;
                    }
                    if (pos_ + 1 < src_.size() && src_[pos_] == '(' &&
                        src_[pos_ + 1] == '*') {
                        ++depth;
                        pos_ += 2;
                    } else if (pos_ + 1 < src_.size() &&
                               src_[pos_] == '*' &&
                               src_[pos_ + 1] == ')') {
                        --depth;
                        pos_ += 2;
                    } else {
                        ++pos_;
                    }
                }
                continue;
            }
            // // line comments, as a convenience.
            if (pos_ + 1 < src_.size() && src_[pos_] == '/' &&
                src_[pos_ + 1] == '/') {
                while (pos_ < src_.size() && src_[pos_] != '\n')
                    ++pos_;
                continue;
            }
            break;
        }
    }

    const std::string &src_;
    std::size_t pos_ = 0;
    std::size_t lineStart_ = 0;
    int line_ = 1;
    Token tok_{Tok::End, "", 1, 1};
};

/**
 * Adversarial (fuzzed) cat files can nest parentheses, brackets, or
 * complements arbitrarily deep, or chain operators arbitrarily long;
 * bound the recursive descent and the tree's height so they fail
 * with a ParseError instead of overflowing the stack.
 */
constexpr int kMaxNesting = 200;

class Parser
{
  public:
    explicit Parser(const std::string &src) : lex_(src) {}

    CatFile
    parse()
    {
        CatFile file;
        if (lex_.peek().kind == Tok::String)
            file.modelName = lex_.next().text;
        // An unquoted leading model name (herd allows `LKMM` alone on
        // the first line) is ambiguous with definitions; we require
        // quoted names.
        while (lex_.peek().kind != Tok::End)
            file.statements.push_back(statement());
        return file;
    }

  private:
    [[noreturn]] void
    error(const std::string &what)
    {
        const Token &t = lex_.peek();
        throw ParseError("cat parser: " + what, t.line, t.col,
                         t.kind == Tok::End ? "end of input" : t.text);
    }

    Token
    expect(Tok kind, const std::string &what)
    {
        if (lex_.peek().kind != kind)
            error("expected " + what);
        return lex_.next();
    }

    std::string
    expectIdent()
    {
        if (lex_.peek().kind != Tok::Ident)
            error("expected identifier");
        return lex_.next().text;
    }

    CatStatement
    statement()
    {
        const Token t = lex_.peek();
        if (t.kind != Tok::Ident)
            error("expected statement");

        if (t.text == "let")
            return letStatement();
        if (t.text == "acyclic" || t.text == "irreflexive" ||
            t.text == "empty") {
            return checkStatement();
        }
        error("unknown statement keyword '" + t.text + "'");
    }

    CatStatement
    letStatement()
    {
        lex_.next(); // let
        CatStatement st;
        st.kind = CatStatement::Kind::Let;
        if (lex_.peek().kind == Tok::Ident && lex_.peek().text == "rec") {
            lex_.next();
            st.recursive = true;
        }
        for (;;) {
            CatBinding binding;
            binding.line = lex_.peek().line;
            binding.col = lex_.peek().col;
            binding.name = expectIdent();
            if (lex_.peek().kind == Tok::LParen) {
                lex_.next();
                binding.params.push_back(expectIdent());
                while (lex_.peek().kind == Tok::Comma) {
                    lex_.next();
                    binding.params.push_back(expectIdent());
                }
                expect(Tok::RParen, "')'");
            }
            expect(Tok::Equals, "'='");
            binding.body = expr();
            st.bindings.push_back(std::move(binding));
            if (lex_.peek().kind == Tok::Ident &&
                lex_.peek().text == "and") {
                lex_.next();
                continue;
            }
            break;
        }
        return st;
    }

    CatStatement
    checkStatement()
    {
        const std::string kw = lex_.next().text;
        CatStatement st;
        st.kind = kw == "acyclic" ? CatStatement::Kind::Acyclic
            : kw == "irreflexive" ? CatStatement::Kind::Irreflexive
                                  : CatStatement::Kind::Empty;
        st.constraint = expr();
        st.checkName = kw;
        if (lex_.peek().kind == Tok::Ident && lex_.peek().text == "as") {
            lex_.next();
            st.checkName = expectIdent();
        }
        return st;
    }

    /** A node for the operator token `op` over its operands. */
    CatExprPtr
    make(CatExpr::Kind kind, const Token &op, CatExprPtr a,
         CatExprPtr b = nullptr)
    {
        auto e = std::make_unique<CatExpr>(kind, op.line, op.col);
        e->name = op.text;
        e->args.push_back(std::move(a));
        if (b)
            e->args.push_back(std::move(b));
        return bounded(std::move(e));
    }

    /**
     * Give e its height, bounded by kMaxNesting.  A left-associative
     * chain (`a | a | ...`, `a???...`) deepens the tree without
     * recursing here, and whatever walks the tree, the lowering and
     * the destructor included, recurses once per level.
     */
    CatExprPtr
    bounded(CatExprPtr e)
    {
        for (const CatExprPtr &arg : e->args)
            e->height = std::max(e->height, arg->height + 1);
        if (e->height > kMaxNesting) {
            throw ParseError("cat parser: nesting deeper than " +
                                 std::to_string(kMaxNesting) + " levels",
                             e->line, e->col, e->name);
        }
        return e;
    }

    // expr := seq ('|' seq)*
    CatExprPtr
    expr()
    {
        CatExprPtr lhs = seq();
        while (lex_.peek().kind == Tok::Pipe) {
            const Token op = lex_.next();
            lhs = make(CatExpr::Kind::Union, op, std::move(lhs), seq());
        }
        return lhs;
    }

    // seq := term (';' term)*
    CatExprPtr
    seq()
    {
        CatExprPtr lhs = term();
        while (lex_.peek().kind == Tok::Semi) {
            const Token op = lex_.next();
            lhs = make(CatExpr::Kind::Seq, op, std::move(lhs), term());
        }
        return lhs;
    }

    // term := prod (('&' | '\') prod)*
    CatExprPtr
    term()
    {
        CatExprPtr lhs = prod();
        for (;;) {
            if (lex_.peek().kind == Tok::Amp) {
                const Token op = lex_.next();
                lhs = make(CatExpr::Kind::Inter, op, std::move(lhs),
                           prod());
            } else if (lex_.peek().kind == Tok::Backslash) {
                const Token op = lex_.next();
                lhs = make(CatExpr::Kind::Diff, op, std::move(lhs),
                           prod());
            } else {
                break;
            }
        }
        return lhs;
    }

    bool
    startsExpression() const
    {
        switch (lex_.peek().kind) {
          case Tok::Ident:
            return lex_.peek().text != "as" && lex_.peek().text != "and" &&
                lex_.peek().text != "let" && lex_.peek().text != "acyclic" &&
                lex_.peek().text != "irreflexive" &&
                lex_.peek().text != "empty";
          case Tok::LParen:
          case Tok::LBracket:
          case Tok::Tilde:
            return true;
          default:
            return false;
        }
    }

    // prod := postfix ('*' postfix)*   (only when '*' is infix)
    CatExprPtr
    prod()
    {
        CatExprPtr lhs = postfix();
        while (lex_.peek().kind == Tok::Star) {
            // Lookahead decides infix vs postfix; postfix was already
            // consumed inside postfix(), so a '*' here is infix iff an
            // expression follows.
            const Token op = lex_.next();
            if (!startsExpression()) {
                // Trailing postfix star after postfix chain.
                lhs = make(CatExpr::Kind::Star, op, std::move(lhs));
                continue;
            }
            lhs = make(CatExpr::Kind::Product, op, std::move(lhs),
                       postfix());
        }
        return lhs;
    }

    // postfix := primary ('?' | '+' | '^-1' | postfix-'*')*
    CatExprPtr
    postfix()
    {
        CatExprPtr e = primary();
        for (;;) {
            switch (lex_.peek().kind) {
              case Tok::Question:
                e = make(CatExpr::Kind::Opt, lex_.next(), std::move(e));
                continue;
              case Tok::Plus:
                e = make(CatExpr::Kind::Plus, lex_.next(), std::move(e));
                continue;
              case Tok::Inverse:
                e = make(CatExpr::Kind::Inverse, lex_.next(),
                         std::move(e));
                continue;
              default:
                break;
            }
            break;
        }
        return e;
    }

    /** RAII recursion-depth bound; see kMaxNesting. */
    class DepthGuard
    {
      public:
        DepthGuard(Parser &p) : p_(p)
        {
            if (++p_.depth_ > kMaxNesting) {
                p_.error("nesting deeper than " +
                         std::to_string(kMaxNesting) + " levels");
            }
        }
        ~DepthGuard() { --p_.depth_; }

      private:
        Parser &p_;
    };

    CatExprPtr
    primary()
    {
        DepthGuard guard(*this);
        const Token t = lex_.peek();
        switch (t.kind) {
          case Tok::Ident: {
            lex_.next();
            if (lex_.peek().kind == Tok::LParen) {
                lex_.next();
                auto call = std::make_unique<CatExpr>(CatExpr::Kind::Call,
                                                      t.line, t.col);
                call->name = t.text;
                call->args.push_back(expr());
                while (lex_.peek().kind == Tok::Comma) {
                    lex_.next();
                    call->args.push_back(expr());
                }
                expect(Tok::RParen, "')'");
                return bounded(std::move(call));
            }
            auto id = std::make_unique<CatExpr>(CatExpr::Kind::Id,
                                                t.line, t.col);
            id->name = t.text;
            return id;
          }
          case Tok::LParen: {
            lex_.next();
            CatExprPtr e = expr();
            expect(Tok::RParen, "')'");
            return e;
          }
          case Tok::LBracket: {
            lex_.next();
            CatExprPtr e = expr();
            expect(Tok::RBracket, "']'");
            return make(CatExpr::Kind::Bracket, t, std::move(e));
          }
          case Tok::Tilde: {
            lex_.next();
            return make(CatExpr::Kind::Compl, t, postfix());
          }
          default:
            error("expected expression");
        }
    }

    Lexer lex_;
    /** Current recursion depth, bounded by kMaxNesting. */
    int depth_ = 0;
};

} // namespace

CatFile
parseCat(const std::string &source)
{
    faultinject::checkSite(faultinject::site::kCatParse, "parseCat");
    Parser parser(source);
    return parser.parse();
}

CatFile
parseCatFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw StatusError(Status(StatusCode::IoError,
                                 "cannot open cat file: " + path));
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseCat(ss.str());
}

} // namespace lkmm::cat
