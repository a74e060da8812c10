// Unit + property tests for hsa::HeaderSpace: union/intersect/subtract
// algebra, the set-identities the rule-graph construction relies on,
// randomized membership cross-checks against a brute-force oracle, and the
// exact unique-header query lex_min_excluding.
#include "hsa/header_space.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace sdnprobe::hsa {
namespace {

TernaryString ts(const char* s) { return *TernaryString::parse(s); }

TEST(HeaderSpace, EmptyAndFull) {
  EXPECT_TRUE(HeaderSpace::empty(8).is_empty());
  const HeaderSpace full = HeaderSpace::full(8);
  EXPECT_FALSE(full.is_empty());
  EXPECT_TRUE(full.contains(ts("10110100")));
}

TEST(HeaderSpace, PaperRuleInputExample) {
  // §V-A: c2.in = 001xxxxx - 00100xxx (c1 has higher priority).
  const HeaderSpace in =
      HeaderSpace(ts("001xxxxx")).subtract(ts("00100xxx"));
  EXPECT_FALSE(in.is_empty());
  EXPECT_TRUE(in.contains(ts("00101000")));
  EXPECT_FALSE(in.contains(ts("00100111")));
  // b2.out ∩ c2.in != ∅  (edge (b2, c2) exists).
  EXPECT_FALSE(in.intersect(ts("0011xxxx")).is_empty());
  // e2.in = 001xxxxx - 0010xxxx; c1.out = 00100xxx misses it (no edge).
  const HeaderSpace e2_in =
      HeaderSpace(ts("001xxxxx")).subtract(ts("0010xxxx"));
  EXPECT_TRUE(e2_in.intersect(ts("00100xxx")).is_empty());
}

TEST(HeaderSpace, SubtractThenUnionRestores) {
  const HeaderSpace a = HeaderSpace(ts("01xxxxxx"));
  const TernaryString hole = ts("0110xxxx");
  const HeaderSpace punched = a.subtract(hole);
  EXPECT_FALSE(punched.contains(ts("01101111")));
  const HeaderSpace restored = punched.union_with(HeaderSpace(hole));
  EXPECT_TRUE(restored == a);
}

TEST(HeaderSpace, SubtractSelfIsEmpty) {
  const HeaderSpace a = HeaderSpace(ts("0x1x0xxx"));
  EXPECT_TRUE(a.subtract(a).is_empty());
}

TEST(HeaderSpace, SubtractDisjointIsIdentity) {
  const HeaderSpace a = HeaderSpace(ts("01xxxxxx"));
  EXPECT_TRUE(a.subtract(ts("10xxxxxx")) == a);
}

TEST(HeaderSpace, CubeDifferencePiecesAreDisjointAndExact) {
  const TernaryString a = ts("0xxxxxxx");
  const TernaryString b = ts("010x1xxx");
  const auto pieces = cube_difference(a, b);
  // Pairwise disjoint.
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    for (std::size_t j = i + 1; j < pieces.size(); ++j) {
      EXPECT_FALSE(pieces[i].intersects(pieces[j]));
    }
  }
  // No piece intersects b, and pieces ∪ (a ∩ b) == a.
  util::Rng rng(5);
  for (int it = 0; it < 256; ++it) {
    const TernaryString h = a.sample(rng);
    bool in_pieces = false;
    for (const auto& p : pieces) in_pieces |= p.covers(h);
    EXPECT_EQ(in_pieces, !b.covers(h)) << h.to_string();
  }
}

TEST(HeaderSpace, TransformDistributesOverUnion) {
  const TernaryString set = ts("1x0xxxxx");
  const HeaderSpace u =
      HeaderSpace(ts("00xxxxxx")).union_with(HeaderSpace(ts("11xxxxxx")));
  const HeaderSpace t = u.transform(set);
  EXPECT_TRUE(t.contains(ts("10011111").transform(set)));
  // Everything in the transform has the set bits pinned.
  util::Rng rng(9);
  for (int i = 0; i < 64; ++i) {
    const auto h = t.sample(rng);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->get(0), Trit::kOne);
    EXPECT_EQ(h->get(2), Trit::kZero);
  }
}

TEST(HeaderSpace, InverseTransformRoundTrip) {
  const TernaryString set = ts("x1xx0xxx");
  const HeaderSpace post = HeaderSpace(ts("0100xxxx"));
  const HeaderSpace pre = post.inverse_transform(set);
  util::Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    const auto h = pre.sample(rng);
    ASSERT_TRUE(h.has_value());
    EXPECT_TRUE(post.contains(h->transform(set)));
  }
}

TEST(HeaderSpace, SampleNulloptOnlyWhenEmpty) {
  util::Rng rng(1);
  EXPECT_FALSE(HeaderSpace::empty(8).sample(rng).has_value());
  EXPECT_TRUE(HeaderSpace::full(8).sample(rng).has_value());
}

TEST(HeaderSpace, SimplifyRemovesSubsumedCubes) {
  HeaderSpace u = HeaderSpace(ts("0xxxxxxx"));
  u = u.union_with(HeaderSpace(ts("00xxxxxx")));  // subsumed
  u = u.union_with(HeaderSpace(ts("01x1xxxx")));  // subsumed
  EXPECT_EQ(u.cube_count(), 1u);
}

// Property: (A − B) ∩ B == ∅ and (A − B) ∪ (A ∩ B) == A, on random cubes.
class SubtractProperty : public ::testing::TestWithParam<int> {};

TEST_P(SubtractProperty, PartitionIdentity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto random_cube = [&rng]() {
    TernaryString t = TernaryString::wildcard(12);
    for (int k = 0; k < 12; ++k) {
      const int r = static_cast<int>(rng.next_below(3));
      t.set(k, r == 0   ? Trit::kZero
              : r == 1 ? Trit::kOne
                       : Trit::kWild);
    }
    return t;
  };
  const HeaderSpace a = HeaderSpace(random_cube()).union_with(
      HeaderSpace(random_cube()));
  const TernaryString b = random_cube();
  const HeaderSpace diff = a.subtract(b);
  const HeaderSpace inter = a.intersect(b);
  EXPECT_TRUE(diff.intersect(b).is_empty());
  EXPECT_TRUE(diff.union_with(inter) == a);
}

INSTANTIATE_TEST_SUITE_P(RandomCubes, SubtractProperty,
                         ::testing::Range(0, 24));

// Regression for cube blow-up on chained subtractions: subtracting a union
// of many loosely-constrained cubes used to let the intermediate working
// list grow multiplicatively, with subsumption cleanup only at the end.
// subtract(HeaderSpace) now interleaves simplify passes whenever the fold
// crosses kSimplifyThreshold, so the result stays bounded — and must still
// denote exactly full − ∪holes.
TEST(HeaderSpace, ChainedSubtractionStaysBoundedAndExact) {
  util::Rng rng(11);
  const int w = 16;
  std::vector<TernaryString> holes;
  HeaderSpace sub(w);
  for (int i = 0; i < 40; ++i) {
    // 2–5 fixed bits each: wide cubes whose differences overlap heavily.
    TernaryString c = TernaryString::wildcard(w);
    const int fixed = 2 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < fixed; ++f) {
      c.set(static_cast<int>(rng.next_below(w)),
            rng.next_bool(0.5) ? Trit::kOne : Trit::kZero);
    }
    holes.push_back(c);
    sub = sub.union_with(HeaderSpace(c));
  }
  const HeaderSpace result = HeaderSpace::full(w).subtract(sub);
  EXPECT_LE(result.cube_count(), 256u);

  // Membership oracle: h ∈ result iff no hole covers h.
  for (int i = 0; i < 512; ++i) {
    TernaryString h = TernaryString::wildcard(w);
    for (int k = 0; k < w; ++k) {
      h.set(k, rng.next_bool(0.5) ? Trit::kOne : Trit::kZero);
    }
    bool in_hole = false;
    for (const auto& c : holes) in_hole |= c.covers(h);
    EXPECT_EQ(result.contains(h), !in_hole) << h.to_string();
  }

  // Same set as the fully-simplified per-cube fold.
  HeaderSpace fold = HeaderSpace::full(w);
  for (const auto& c : holes) fold = fold.subtract(c);
  EXPECT_TRUE(result == fold);
}

using HeaderSet = std::unordered_set<TernaryString, TernaryStringHash>;

// Brute force: the first header of `space` in lex order (exact(v) walks
// H[0..w-1] as a binary number, H[0] most significant) not in `forbidden`.
std::optional<TernaryString> oracle_lex_min(const HeaderSpace& space,
                                            const HeaderSet& forbidden) {
  const int w = space.width();
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << w); ++v) {
    const TernaryString h = TernaryString::exact(v, w);
    if (space.contains(h) && forbidden.count(h) == 0) return h;
  }
  return std::nullopt;
}

TernaryString random_cube(util::Rng& rng, int width, double wild_p) {
  TernaryString t(width);
  for (int k = 0; k < width; ++k) {
    if (rng.next_bool(wild_p)) continue;  // keep wildcard
    t.set(k, rng.next_bool(0.5) ? Trit::kOne : Trit::kZero);
  }
  return t;
}

TEST(HeaderSpaceLexMin, EmptySpaceHasNoAnswer) {
  EXPECT_FALSE(HeaderSpace::empty(8).lex_min_excluding({}).has_value());
  EXPECT_FALSE(HeaderSpace::empty(8)
                   .lex_min_excluding({ts("00000000")})
                   .has_value());
}

TEST(HeaderSpaceLexMin, FindsHeaderInDifference) {
  // The §V-A use case: the smallest header in match − overlap.
  const TernaryString match = ts("001xxxxx");
  const TernaryString overlap = ts("00100xxx");
  const auto h = HeaderSpace(match).subtract(overlap).lex_min_excluding({});
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->to_string(), "00101000");
}

TEST(HeaderSpaceLexMin, UniquenessExhaustsTinySpace) {
  // A 2-header space yields exactly two distinct headers, then nothing.
  const HeaderSpace space(ts("0110101x"));
  HeaderSet used;
  for (const char* expected : {"01101010", "01101011"}) {
    const auto h = space.lex_min_excluding(used);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->to_string(), expected);
    used.insert(*h);
  }
  EXPECT_FALSE(space.lex_min_excluding(used).has_value());
}

TEST(HeaderSpaceLexMin, DeepOverlapChain) {
  // 65-deep nested prefixes (the campus §VIII-A regime) subtracted from the
  // full 96-bit space: the residual is every header with a 0 among H[0..64],
  // whose smallest member is all zeros; forbidding it moves the answer to
  // the next header in lex order.
  HeaderSpace space = HeaderSpace::full(96);
  TernaryString pinned = TernaryString::wildcard(96);
  for (int depth = 0; depth < 65; ++depth) {
    pinned.set(depth, Trit::kOne);
    space = space.subtract(pinned);
  }
  const std::string zeros(96, '0');
  const auto h = space.lex_min_excluding({});
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->to_string(), zeros);
  const auto next = space.lex_min_excluding({*h});
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->to_string(), zeros.substr(0, 95) + "1");
}

TEST(HeaderSpaceLexMin, ExhaustedCubeFallsThroughToTheNextCube) {
  const HeaderSpace one(ts("0x"));
  const HeaderSet all_of_one = {ts("00"), ts("01")};
  EXPECT_FALSE(one.lex_min_excluding(all_of_one).has_value());

  const HeaderSpace two = one.union_with(HeaderSpace(ts("1x")));
  const auto h = two.lex_min_excluding(all_of_one);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->to_string(), "10");
}

TEST(HeaderSpaceLexMin, OverlappingCubesTakeTheMinimumOverCubes) {
  // 0xx1 and 00xx overlap in 00x1; the answer can come from either cube.
  const HeaderSpace s =
      HeaderSpace(ts("0xx1")).union_with(HeaderSpace(ts("00xx")));
  ASSERT_EQ(s.cube_count(), 2u);
  EXPECT_EQ(s.lex_min_excluding({})->to_string(), "0000");
  EXPECT_EQ(s.lex_min_excluding({ts("0000"), ts("0001")})->to_string(),
            "0010");
  EXPECT_EQ(s.lex_min_excluding({ts("0000"), ts("0001"), ts("0010"),
                                 ts("0011")})
                ->to_string(),
            "0101");
}

// Forbidding the first k of `members` (the cube's members in lex order)
// must give member k; forbidding all of them must give nothing.
void expect_walk_order(const std::string& cube,
                       const std::vector<std::string>& members) {
  const HeaderSpace s(ts(cube.c_str()));
  HeaderSet forbidden;
  for (const std::string& m : members) {
    const auto h = s.lex_min_excluding(forbidden);
    ASSERT_TRUE(h.has_value()) << m;
    EXPECT_EQ(h->to_string(), m);
    forbidden.insert(ts(m.c_str()));
  }
  EXPECT_FALSE(s.lex_min_excluding(forbidden).has_value());
}

TEST(HeaderSpaceLexMin, CarryCrossesTheWordBoundary) {
  // Width 64: wildcards at H[62], H[63], the last bits of word 0.
  {
    const std::string z(62, '0');
    expect_walk_order(z + "xx", {z + "00", z + "01", z + "10", z + "11"});
  }
  // Width 65: H[63] is in word 0, H[64] in word 1; 01 -> 10 carries across.
  {
    const std::string z(63, '0');
    expect_walk_order(z + "xx", {z + "00", z + "01", z + "10", z + "11"});
  }
  // Width 100: wildcards at H[10], H[63], H[64], H[99] over mixed exact
  // bits. Member c sets those positions to c's binary digits, H[10] most
  // significant, so members 3 -> 4 and 7 -> 8 carry from word 1 into word 0.
  {
    std::string base(100, '0');
    for (int k = 0; k < 100; k += 3) base[k] = '1';
    const int wild[4] = {10, 63, 64, 99};
    std::string cube = base;
    for (const int k : wild) cube[k] = 'x';
    std::vector<std::string> members;
    for (int c = 0; c < 16; ++c) {
      std::string h = base;
      for (int d = 0; d < 4; ++d) {
        h[wild[d]] = ((c >> (3 - d)) & 1) != 0 ? '1' : '0';
      }
      members.push_back(h);
    }
    expect_walk_order(cube, members);
  }
}

TEST(HeaderSpaceLexMin, MatchesBruteForceOracle) {
  util::Rng rng(77);
  int answered = 0;
  int exhausted = 0;
  for (int w = 1; w <= 16; ++w) {
    for (int q = 0; q < 12; ++q) {
      HeaderSpace space(w);
      const int cubes = 1 + static_cast<int>(rng.next_below(4));
      for (int i = 0; i < cubes; ++i) {
        space = space.union_with(HeaderSpace(random_cube(rng, w, 0.6)));
      }
      if (rng.next_bool(0.4)) space = space.subtract(random_cube(rng, w, 0.5));

      // Forbid a prefix of the space's members in lex order (forcing long
      // walks; sometimes the whole space) plus random headers, most of
      // them outside the space.
      HeaderSet forbidden;
      if (q % 4 == 3) {
        for (std::uint64_t v = 0; v < (std::uint64_t{1} << w); ++v) {
          const TernaryString h = TernaryString::exact(v, w);
          if (space.contains(h)) forbidden.insert(h);
        }
      }
      const int prefix = static_cast<int>(rng.next_below(6));
      for (int i = 0; i < prefix; ++i) {
        const auto m = oracle_lex_min(space, forbidden);
        if (!m.has_value()) break;
        forbidden.insert(*m);
      }
      for (int i = 0; i < 4; ++i) {
        forbidden.insert(random_cube(rng, w, 0.0));
      }

      const auto expected = oracle_lex_min(space, forbidden);
      const auto got = space.lex_min_excluding(forbidden);
      ASSERT_EQ(expected.has_value(), got.has_value())
          << "width " << w << " query " << q << ": " << space.to_string();
      if (expected.has_value()) {
        ++answered;
        EXPECT_EQ(got->to_string(), expected->to_string())
            << "width " << w << " query " << q << ": " << space.to_string();
      } else {
        ++exhausted;
      }
    }
  }
  EXPECT_GT(answered, 100);
  EXPECT_GT(exhausted, 10);
}

}  // namespace
}  // namespace sdnprobe::hsa
