#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "query/parser.h"
#include "query/patterns.h"
#include "query/query.h"

namespace clftj {
namespace {

TEST(Query, AddVariableDeduplicates) {
  Query q;
  const VarId x = q.AddVariable("x");
  const VarId y = q.AddVariable("y");
  EXPECT_NE(x, y);
  EXPECT_EQ(q.AddVariable("x"), x);
  EXPECT_EQ(q.num_vars(), 2);
  EXPECT_EQ(q.FindVariable("y"), y);
  EXPECT_EQ(q.FindVariable("zzz"), kNone);
}

TEST(Query, AtomVarsDistinctInOrder) {
  Query q;
  const VarId x = q.AddVariable("x");
  const VarId y = q.AddVariable("y");
  Atom a;
  a.relation = "R";
  a.terms = {Term::Var(y), Term::Const(5), Term::Var(x), Term::Var(y)};
  q.AddAtom(a);
  EXPECT_EQ(q.atom(0).Vars(), (std::vector<VarId>{y, x}));
}

TEST(Query, AtomsWithVar) {
  const auto q = ParseQuery("E(x,y), E(y,z)");
  ASSERT_TRUE(q.has_value());
  const VarId y = q->FindVariable("y");
  EXPECT_EQ(q->AtomsWithVar(y), (std::vector<AtomId>{0, 1}));
  const VarId x = q->FindVariable("x");
  EXPECT_EQ(q->AtomsWithVar(x), (std::vector<AtomId>{0}));
}

TEST(Query, GaifmanGraphOfPath) {
  const auto q = ParseQuery("E(x,y), E(y,z)");
  ASSERT_TRUE(q.has_value());
  const auto adj = q->GaifmanGraph();
  const VarId x = q->FindVariable("x");
  const VarId y = q->FindVariable("y");
  const VarId z = q->FindVariable("z");
  EXPECT_EQ(adj[x], (std::vector<VarId>{y}));
  EXPECT_EQ(adj[y], (std::vector<VarId>{x, z}));
  EXPECT_EQ(adj[z], (std::vector<VarId>{y}));
}

TEST(Query, GaifmanGraphOfTernaryAtomIsClique) {
  const auto q = ParseQuery("T(a,b,c)");
  ASSERT_TRUE(q.has_value());
  const auto adj = q->GaifmanGraph();
  for (int v = 0; v < 3; ++v) EXPECT_EQ(adj[v].size(), 2u);
}

TEST(Query, ToStringRoundTripsThroughParser) {
  const auto q = ParseQuery("E(x, y),E(y,z), R(z, 7)");
  ASSERT_TRUE(q.has_value());
  const auto q2 = ParseQuery(q->ToString());
  ASSERT_TRUE(q2.has_value());
  EXPECT_EQ(q2->ToString(), q->ToString());
}

// --- Parser ---

TEST(Parser, ParsesConstantsAndVariables) {
  const auto q = ParseQuery("R(x, -42, y, 7)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->num_vars(), 2);
  ASSERT_EQ(q->atom(0).terms.size(), 4u);
  EXPECT_FALSE(q->atom(0).terms[1].is_variable);
  EXPECT_EQ(q->atom(0).terms[1].constant, -42);
  EXPECT_EQ(q->atom(0).terms[3].constant, 7);
}

TEST(Parser, WhitespaceInsensitive) {
  const auto a = ParseQuery("E(x,y),E(y,z)");
  const auto b = ParseQuery("  E( x , y ) ,\n\tE(y, z)  ");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->ToString(), b->ToString());
}

TEST(Parser, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ParseQuery("", &error).has_value());
  EXPECT_FALSE(ParseQuery("E(x,y", &error).has_value());
  EXPECT_FALSE(ParseQuery("E(x,,y)", &error).has_value());
  EXPECT_FALSE(ParseQuery("E(x y)", &error).has_value());
  EXPECT_FALSE(ParseQuery("(x,y)", &error).has_value());
  EXPECT_FALSE(ParseQuery("E(x,y) E(y,z)", &error).has_value());
  EXPECT_FALSE(ParseQuery("E()", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Parser, ErrorIncludesOffset) {
  std::string error;
  EXPECT_FALSE(ParseQuery("E(x,y), E(x,", &error).has_value());
  EXPECT_NE(error.find("offset"), std::string::npos);
}

TEST(Parser, ConstantsOutsideInt64AreAnErrorNotAThrow) {
  const auto limits = ParseQuery(
      "R(x, -9223372036854775808), R(x, +9223372036854775807)");
  ASSERT_TRUE(limits.has_value());
  EXPECT_EQ(limits->atom(0).terms[1].constant, INT64_MIN);
  EXPECT_EQ(limits->atom(1).terms[1].constant, INT64_MAX);
  for (const char* text : {"R(x, 9223372036854775808)",
                           "R(x, -9223372036854775809)",
                           "R(x, 92233720368547758079)"}) {
    std::string error;
    EXPECT_FALSE(ParseQuery(text, &error).has_value()) << text;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  }
}

TEST(Parser, UnderscoreIdentifiers) {
  const auto q = ParseQuery("my_rel(_x, x_1)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->atom(0).relation, "my_rel");
  EXPECT_EQ(q->num_vars(), 2);
}

// --- Pattern generators ---

TEST(Patterns, PathQueryShape) {
  const Query q = PathQuery(5);
  EXPECT_EQ(q.num_vars(), 5);
  EXPECT_EQ(q.num_atoms(), 4);
  EXPECT_EQ(q.ToString(), "E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x5)");
}

TEST(Patterns, CycleQueryShape) {
  const Query q = CycleQuery(4);
  EXPECT_EQ(q.num_vars(), 4);
  EXPECT_EQ(q.num_atoms(), 4);
  EXPECT_EQ(q.ToString(), "E(x1,x2), E(x2,x3), E(x3,x4), E(x1,x4)");
}

TEST(Patterns, CliqueQueryShape) {
  const Query q = CliqueQuery(4);
  EXPECT_EQ(q.num_vars(), 4);
  EXPECT_EQ(q.num_atoms(), 6);  // C(4,2)
}

TEST(Patterns, LollipopQueryShape) {
  const Query q = LollipopQuery(3, 2);
  EXPECT_EQ(q.num_vars(), 5);
  EXPECT_EQ(q.num_atoms(), 3 + 2);  // triangle + 2-edge tail
  // The tail hangs off x3: x3-x4, x4-x5.
  const auto adj = q.GaifmanGraph();
  EXPECT_EQ(adj[q.FindVariable("x5")], (std::vector<VarId>{3}));
}

TEST(Patterns, CustomRelationName) {
  const Query q = PathQuery(3, "Edge");
  EXPECT_EQ(q.atom(0).relation, "Edge");
}

TEST(Patterns, RandomPatternIsConnectedAndDeterministic) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Query q = RandomPatternQuery(5, 0.4, seed);
    EXPECT_EQ(q.num_vars(), 5);
    EXPECT_GE(q.num_atoms(), 4);  // connectivity needs >= n-1 edges
    EXPECT_TRUE(q.AllVarsCovered());
    const Query again = RandomPatternQuery(5, 0.4, seed);
    EXPECT_EQ(q.ToString(), again.ToString());
  }
}

TEST(Patterns, RandomPatternDensityGrowsWithP) {
  int sparse = 0;
  int dense = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sparse += RandomPatternQuery(6, 0.4, seed).num_atoms();
    dense += RandomPatternQuery(6, 0.9, seed).num_atoms();
  }
  EXPECT_LT(sparse, dense);
}

TEST(Patterns, AllVarsCoveredAcrossZoo) {
  EXPECT_TRUE(PathQuery(7).AllVarsCovered());
  EXPECT_TRUE(CycleQuery(6).AllVarsCovered());
  EXPECT_TRUE(CliqueQuery(5).AllVarsCovered());
  EXPECT_TRUE(LollipopQuery(4, 3).AllVarsCovered());
}

}  // namespace
}  // namespace clftj
