#include "catalog/term.h"

#include <gtest/gtest.h>

namespace coursenav {
namespace {

TEST(TermTest, ConstructionAndAccessors) {
  Term fall(Season::kFall, 2011);
  EXPECT_EQ(fall.season(), Season::kFall);
  EXPECT_EQ(fall.year(), 2011);
  Term spring(Season::kSpring, 2012);
  EXPECT_EQ(spring.season(), Season::kSpring);
  EXPECT_EQ(spring.year(), 2012);
}

TEST(TermTest, SuccessorAlternatesSeasons) {
  Term fall11(Season::kFall, 2011);
  Term spring12 = fall11.Next();
  EXPECT_EQ(spring12, Term(Season::kSpring, 2012));
  EXPECT_EQ(spring12.Next(), Term(Season::kFall, 2012));
  EXPECT_EQ(spring12.Prev(), fall11);
}

TEST(TermTest, ArithmeticAndDifference) {
  Term fall12(Season::kFall, 2012);
  Term fall15(Season::kFall, 2015);
  EXPECT_EQ(fall15 - fall12, 6);
  EXPECT_EQ(fall12 + 6, fall15);
  EXPECT_EQ(fall15.Plus(-6), fall12);
}

TEST(TermTest, Ordering) {
  Term f11(Season::kFall, 2011);
  Term s12(Season::kSpring, 2012);
  Term f12(Season::kFall, 2012);
  EXPECT_LT(f11, s12);
  EXPECT_LT(s12, f12);
  EXPECT_GT(f12, f11);
  EXPECT_LE(f11, f11);
}

TEST(TermTest, FromIndexRoundTrip) {
  Term t(Season::kSpring, 2013);
  EXPECT_EQ(Term::FromIndex(t.index()), t);
}

TEST(TermTest, ToStringFormats) {
  EXPECT_EQ(Term(Season::kFall, 2011).ToString(), "Fall 2011");
  EXPECT_EQ(Term(Season::kSpring, 2012).ToString(), "Spring 2012");
  EXPECT_EQ(Term(Season::kFall, 2011).ToShortString(), "F11");
  EXPECT_EQ(Term(Season::kSpring, 2005).ToShortString(), "S05");
}

struct ParseCase {
  const char* input;
  Season season;
  int year;
};

// Prints a case as its input with spaces shown as '_'. The default printer
// dumps the struct's bytes, pointer included, so the case names would change
// with every run of the binary.
void PrintTo(const ParseCase& c, std::ostream* os) {
  for (const char* p = c.input; *p != '\0'; ++p) *os << (*p == ' ' ? '_' : *p);
}

class TermParseTest : public ::testing::TestWithParam<ParseCase> {};

TEST_P(TermParseTest, ParsesAcceptedFormats) {
  const ParseCase& c = GetParam();
  Result<Term> t = Term::Parse(c.input);
  ASSERT_TRUE(t.ok()) << c.input << ": " << t.status().ToString();
  EXPECT_EQ(t->season(), c.season) << c.input;
  EXPECT_EQ(t->year(), c.year) << c.input;
}

INSTANTIATE_TEST_SUITE_P(
    Formats, TermParseTest,
    ::testing::Values(
        ParseCase{"Fall 2011", Season::kFall, 2011},
        ParseCase{"fall 2011", Season::kFall, 2011},
        ParseCase{"FALL2011", Season::kFall, 2011},
        ParseCase{"Fall '11", Season::kFall, 2011},
        ParseCase{"Fall 11", Season::kFall, 2011},
        ParseCase{"F11", Season::kFall, 2011},
        ParseCase{"f2011", Season::kFall, 2011},
        ParseCase{"Spring 2012", Season::kSpring, 2012},
        ParseCase{"S12", Season::kSpring, 2012},
        ParseCase{"spring '12", Season::kSpring, 2012},
        ParseCase{"Autumn 2013", Season::kFall, 2013},
        ParseCase{"  Fall 2014  ", Season::kFall, 2014}));

TEST(TermParseTest, RejectsInvalid) {
  for (const char* bad :
       {"", "Winter 2011", "Fall", "2011", "Fall twenty", "Fall -3",
        "Fall 99999", "Summer 2012"}) {
    Result<Term> t = Term::Parse(bad);
    EXPECT_FALSE(t.ok()) << bad;
    EXPECT_TRUE(t.status().IsParseError()) << bad;
  }
}

TEST(TermParseTest, RoundTripThroughToString) {
  for (Term t : {Term(Season::kFall, 2011), Term(Season::kSpring, 2015)}) {
    EXPECT_EQ(*Term::Parse(t.ToString()), t);
    EXPECT_EQ(*Term::Parse(t.ToShortString()), t);
  }
}

TEST(SeasonTest, ToString) {
  EXPECT_EQ(SeasonToString(Season::kFall), "Fall");
  EXPECT_EQ(SeasonToString(Season::kSpring), "Spring");
}

}  // namespace
}  // namespace coursenav
