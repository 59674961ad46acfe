/**
 * Unit tests for the suppression directive parser, the baseline file,
 * and finding fingerprints (the identity the baseline keys on).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/baseline.h"
#include "analysis/lexer.h"
#include "analysis/suppress.h"

namespace minjie::analysis {
namespace {

Suppressions
parse(const std::string &text, std::vector<Finding> &diags,
      const char *path = "src/campaign/x.cpp")
{
    SourceFile f(path, text);
    LexResult r = lex(f);
    return Suppressions(path, r.comments, f, diags);
}

TEST(Suppress, TrailingDirectiveCoversItsLine)
{
    std::vector<Finding> diags;
    auto s = parse("int a = rand(); // lint:allow MJ-DET-001 test rig\n",
                   diags);
    EXPECT_TRUE(diags.empty());
    EXPECT_EQ(s.directiveCount(), 1u);
    EXPECT_TRUE(s.allows(1, "MJ-DET-001"));
    EXPECT_FALSE(s.allows(1, "MJ-DET-002"));
    EXPECT_FALSE(s.allows(2, "MJ-DET-001"));
}

TEST(Suppress, OwnLineDirectiveCoversNextLine)
{
    std::vector<Finding> diags;
    auto s = parse("// lint:allow MJ-FRK-003 flushed before fork\n"
                   "printf(\"x\");\n",
                   diags);
    EXPECT_TRUE(diags.empty());
    EXPECT_TRUE(s.allows(1, "MJ-FRK-003"));
    EXPECT_TRUE(s.allows(2, "MJ-FRK-003"));
    EXPECT_FALSE(s.allows(3, "MJ-FRK-003"));
}

TEST(Suppress, MissingJustificationIsReported)
{
    std::vector<Finding> diags;
    auto s = parse("int a = rand(); // lint:allow MJ-DET-001\n", diags);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "MJ-SUP-001");
    EXPECT_EQ(diags[0].line, 1u);
    // The malformed directive must not suppress anything.
    EXPECT_FALSE(s.allows(1, "MJ-DET-001"));
}

TEST(Suppress, MissingRuleIdIsReported)
{
    std::vector<Finding> diags;
    parse("// lint:allow\nint a;\n", diags);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "MJ-SUP-001");
}

TEST(Fingerprint, IgnoresLineNumberAndWhitespace)
{
    Finding a{"MJ-DET-001", "src/campaign/x.cpp", 10, 4, "m",
              "int a = rand();", {}};
    Finding b = a;
    b.line = 99;
    b.col = 1;
    b.snippet = "int  a =\trand();"; // same modulo whitespace
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Fingerprint, SensitiveToRulePathAndSnippet)
{
    Finding a{"MJ-DET-001", "src/campaign/x.cpp", 1, 1, "m", "rand();",
              {}};
    Finding rule = a, path = a, snip = a;
    rule.ruleId = "MJ-DET-002";
    path.path = "src/campaign/y.cpp";
    snip.snippet = "srand();";
    EXPECT_NE(a.fingerprint(), rule.fingerprint());
    EXPECT_NE(a.fingerprint(), path.fingerprint());
    EXPECT_NE(a.fingerprint(), snip.fingerprint());
}

TEST(Baseline, RoundTripAndStaleTracking)
{
    Finding known{"MJ-DET-003", "src/campaign/x.cpp", 5, 1, "m",
                  "std::unordered_map<int, int> h;", {}};
    Finding gone{"MJ-DET-001", "src/campaign/y.cpp", 7, 1, "m",
                 "rand();", {}};

    std::string path =
        testing::TempDir() + "/minjie_lint_baseline_test.txt";
    ASSERT_TRUE(Baseline::write(path, {known, gone}));

    Baseline bl;
    ASSERT_TRUE(bl.load(path));
    EXPECT_EQ(bl.size(), 2u);

    // 'known' still fires (different line: fingerprints are
    // line-independent); 'gone' was fixed, so its entry goes stale.
    Finding knownMoved = known;
    knownMoved.line = 50;
    EXPECT_TRUE(bl.matches(knownMoved));
    EXPECT_FALSE(
        bl.matches(Finding{"MJ-DET-002", "a", 1, 1, "m", "s", {}}));

    auto stale = bl.unusedEntries();
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_NE(stale[0].find("src/campaign/y.cpp"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Baseline, MissingFileIsEmpty)
{
    Baseline bl;
    EXPECT_TRUE(bl.load(testing::TempDir() + "/does_not_exist_873"));
    EXPECT_EQ(bl.size(), 0u);
}

/** Write @p text to a temp baseline and load it; false on reject. */
bool
loadText(const std::string &text, Baseline &bl)
{
    std::string path =
        testing::TempDir() + "/minjie_lint_baseline_corrupt.txt";
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs(text.c_str(), f);
    std::fclose(f);
    bool ok = bl.load(path);
    std::remove(path.c_str());
    return ok;
}

TEST(Baseline, CorruptLineIsRejected)
{
    const std::string good =
        "# header\n\nMJ-DET-001 src/x.cpp 0123456789abcdef  # rand();\n";
    Baseline bl;
    ASSERT_TRUE(loadText(good, bl));
    EXPECT_EQ(bl.size(), 1u);

    for (const char *bad : {
             "MJ-DET-001 src/x.cpp zzzz\n",               // non-hex
             "MJ-DET-001 src/x.cpp 0123456789abcdeg\n",   // non-hex
             "MJ-DET-001 src/x.cpp 0123456789abcdef0\n",  // too long
             "MJ-DET-001 src/x.cpp 0123 456789abcdef\n",  // stray field
             "garbage\n",
         }) {
        EXPECT_FALSE(loadText(good + bad, bl)) << bad;
        EXPECT_EQ(bl.size(), 0u) << bad;
    }
}

TEST(Baseline, TruncatedLineIsRejected)
{
    Baseline bl;
    // A fingerprint cut short, then a line cut before its fingerprint.
    EXPECT_FALSE(loadText("MJ-DET-001 src/x.cpp 0123456789ab", bl));
    EXPECT_FALSE(loadText("MJ-DET-001 src/x.cpp\n", bl));
    EXPECT_EQ(bl.size(), 0u);
}

} // namespace
} // namespace minjie::analysis
