/**
 * @file
 * Abstract syntax of the cat subset we accept.
 *
 * The cat language [Alglave-Cousot-Maranget 2016] defines
 * consistency models as relation definitions plus acyclicity /
 * irreflexivity / emptiness constraints.  The subset here covers
 * everything the paper's Figures 3, 8 and 12 need: let and
 * recursive let (with `and` for mutual recursion), functions,
 * the full relational algebra, set products and identity-on-set
 * brackets.  cat/lower.hh turns the tree into the program CatModel
 * runs; node positions let it report errors at the offending token.
 */

#ifndef LKMM_CAT_AST_HH
#define LKMM_CAT_AST_HH

#include <memory>
#include <string>
#include <vector>

namespace lkmm::cat
{

/** An expression over relations and sets of events. */
struct CatExpr
{
    enum class Kind
    {
        Id,         ///< identifier reference
        Union,      ///< e1 | e2
        Inter,      ///< e1 & e2
        Diff,       ///< e1 \ e2
        Seq,        ///< e1 ; e2
        Product,    ///< S1 * S2 (sets -> relation)
        Compl,      ///< ~e
        Inverse,    ///< e^-1
        Opt,        ///< e?
        Plus,       ///< e+
        Star,       ///< e* (postfix)
        Bracket,    ///< [S]: identity restricted to a set
        Call,       ///< f(e)
    };

    Kind kind;
    std::string name;   ///< the identifier, or the operator's token
    std::vector<std::unique_ptr<CatExpr>> args;
    /** 1-based position of the node's token (operator or name). */
    int line = 0;
    int col = 0;
    /** Levels from this node down to its deepest leaf; see the parser. */
    int height = 1;

    CatExpr(Kind k, int line, int col) : kind(k), line(line), col(col) {}
};

using CatExprPtr = std::unique_ptr<CatExpr>;

/** One binding of a let/let-rec (possibly with parameters). */
struct CatBinding
{
    std::string name;
    std::vector<std::string> params; ///< empty for plain definitions
    CatExprPtr body;
    int line = 0; ///< position of the bound name
    int col = 0;
};

/** A statement: a definition group or a constraint. */
struct CatStatement
{
    enum class Kind
    {
        Let,         ///< let (rec) a = e (and b = e)*
        Acyclic,
        Irreflexive,
        Empty,
    };

    Kind kind;
    bool recursive = false;           ///< for Let
    std::vector<CatBinding> bindings; ///< for Let
    CatExprPtr constraint;            ///< for checks
    std::string checkName;            ///< "... as name", else the keyword
};

/** A parsed cat model. */
struct CatFile
{
    std::string modelName; ///< the leading quoted string, if any
    std::vector<CatStatement> statements;
};

} // namespace lkmm::cat

#endif // LKMM_CAT_AST_HH
