/**
 * @file
 * Malformed-cat regression corpus: every file under tests/cat/corpus
 * must fail to load with a structured ParseError (line, column,
 * offending token) — in the lexer, the parser or the lowering — and
 * inline cases pin exact coordinates for those error paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "base/status.hh"
#include "cat/eval.hh"
#include "cat/parser.hh"

namespace lkmm
{
namespace
{

namespace fs = std::filesystem;

std::vector<fs::path>
corpusFiles()
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(LKMM_CAT_CORPUS_DIR)) {
        if (entry.path().extension() == ".cat")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(MalformedCat, EveryCorpusFileFailsStructurally)
{
    const std::vector<fs::path> files = corpusFiles();
    // Syntax: truncated, unbalanced-parens, unknown-keyword,
    // bad-char, unterminated-string, deep-paren-nesting,
    // long-operator-chain.  Lowering: undefined-identifier,
    // recursive-function, non-monotone-rec, set-as-relation,
    // wrong-arity, recursive-set, doubling-blowup,
    // doubling-forwarders, forwarding-chain.
    ASSERT_GE(files.size(), 16u);

    for (const fs::path &f : files) {
        try {
            (void)CatModel::fromFile(f.string());
            FAIL() << f.filename() << " loaded successfully";
        } catch (const ParseError &e) {
            EXPECT_GE(e.line(), 1) << f.filename();
            EXPECT_GE(e.column(), 1) << f.filename();
            EXPECT_FALSE(e.token().empty()) << f.filename();
            EXPECT_EQ(e.status().code(), StatusCode::ParseError)
                << f.filename();
        } catch (const std::exception &e) {
            FAIL() << f.filename()
                   << " threw an unstructured error: " << e.what();
        }
    }
}

TEST(MalformedCat, TruncatedExpressionReportsEndOfInput)
{
    try {
        (void)cat::parseCat("let a = po |");
        FAIL() << "parsed";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 1);
        EXPECT_EQ(e.token(), "end of input");
        EXPECT_NE(std::string(e.what()).find("expected expression"),
                  std::string::npos);
    }
}

TEST(MalformedCat, UnknownKeywordCoordinates)
{
    try {
        (void)cat::parseCat("\"m\"\nfrobnicate po as x\n");
        FAIL() << "parsed";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_EQ(e.column(), 1);
        EXPECT_EQ(e.token(), "frobnicate");
    }
}

TEST(MalformedCat, BadCharacterCoordinates)
{
    try {
        (void)cat::parseCat("let a = po @ rf\n");
        FAIL() << "parsed";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 1);
        EXPECT_EQ(e.column(), 12);
        EXPECT_EQ(e.token(), "@");
    }
}

TEST(MalformedCat, UnterminatedStringCoordinates)
{
    try {
        (void)cat::parseCat("\"unterminated model\nlet a = po\n");
        FAIL() << "parsed";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 1);
        EXPECT_EQ(e.column(), 1);
        EXPECT_NE(std::string(e.what()).find("unterminated"),
                  std::string::npos);
    }
}

TEST(MalformedCat, DeepNestingIsParseErrorNotStackOverflow)
{
    const std::string deep(100000, '(');
    try {
        (void)cat::parseCat("let a = " + deep + "po\n");
        FAIL() << "parsed";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 1);
        EXPECT_NE(std::string(e.what()).find("nesting"),
                  std::string::npos);
    }
}

TEST(MalformedCat, LongOperatorChainIsParseErrorNotStackOverflow)
{
    // `po` plus 199 postfix operators is 200 levels: the bound.
    (void)cat::parseCat("let a = po" + std::string(199, '?') + "\n");
    try {
        (void)cat::parseCat("let a = po" + std::string(100000, '?') + "\n");
        FAIL() << "parsed";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 1);
        EXPECT_EQ(e.column(), 11 + 199); // the 200th '?'
        EXPECT_EQ(e.token(), "?");
        EXPECT_NE(std::string(e.what()).find("nesting"),
                  std::string::npos);
    }
}

TEST(MalformedCat, UndefinedIdentifierCoordinates)
{
    try {
        (void)CatModel::fromSource("\"m\"\nlet a = po | nosuch\n");
        FAIL() << "loaded";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_EQ(e.column(), 14);
        EXPECT_EQ(e.token(), "nosuch");
        EXPECT_NE(std::string(e.what()).find("undefined identifier"),
                  std::string::npos);
    }
}

TEST(MalformedCat, MissingFileIsIoError)
{
    try {
        (void)cat::parseCatFile("/nonexistent/no-such.cat");
        FAIL() << "opened";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::IoError);
    }
}

} // namespace
} // namespace lkmm
