// Interactive-object tests: property bags, sprites (incl. spec parsing),
// placements and the two hit-testing strategies (with an equivalence
// property sweep).
#include <gtest/gtest.h>

#include "object/interactive_object.hpp"
#include "object/properties.hpp"
#include "object/sprite.hpp"
#include "util/rng.hpp"

namespace vgbl {
namespace {

// --- PropertyBag --------------------------------------------------------------

TEST(PropertyBagTest, TypedAccess) {
  PropertyBag bag;
  bag.set_bool("locked", true);
  bag.set_int("weight", 12);
  bag.set_double("temp", 36.6);
  bag.set_string("owner", "teacher");

  EXPECT_TRUE(bag.get_bool("locked"));
  EXPECT_EQ(bag.get_int("weight"), 12);
  EXPECT_DOUBLE_EQ(bag.get_double("temp"), 36.6);
  EXPECT_EQ(bag.get_string("owner"), "teacher");
  EXPECT_EQ(bag.size(), 4u);
}

TEST(PropertyBagTest, FallbacksAndCoercion) {
  PropertyBag bag;
  bag.set_int("n", 3);
  EXPECT_EQ(bag.get_int("missing", -1), -1);
  EXPECT_TRUE(bag.get_bool("n"));            // nonzero int -> true
  EXPECT_DOUBLE_EQ(bag.get_double("n"), 3);  // int -> double
  bag.set_double("d", 2.9);
  EXPECT_EQ(bag.get_int("d"), 2);  // double -> int truncation
  EXPECT_EQ(bag.get_string("n", "x"), "x");  // no int->string coercion
}

TEST(PropertyBagTest, RemoveAndHas) {
  PropertyBag bag;
  bag.set_int("a", 1);
  EXPECT_TRUE(bag.has("a"));
  EXPECT_TRUE(bag.remove("a"));
  EXPECT_FALSE(bag.has("a"));
  EXPECT_FALSE(bag.remove("a"));
}

TEST(PropertyBagTest, JsonRoundTrip) {
  PropertyBag bag;
  bag.set_bool("b", true);
  bag.set_int("i", -5);
  bag.set_double("d", 0.5);
  bag.set_string("s", "hi \"there\"");
  auto parsed = PropertyBag::from_json(bag.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), bag);
}

TEST(PropertyBagTest, FromJsonRejectsNonObjects) {
  EXPECT_FALSE(PropertyBag::from_json(Json(5)).ok());
  EXPECT_TRUE(PropertyBag::from_json(Json()).ok());  // null -> empty bag
  Json obj = Json::object();
  obj.mutable_object().set("bad", Json(JsonArray{}));
  EXPECT_FALSE(PropertyBag::from_json(obj).ok());
}

// --- Sprite --------------------------------------------------------------------

TEST(SpriteTest, SolidHasFillAndBorder) {
  const Sprite s = Sprite::solid({10, 8}, colors::kRed);
  EXPECT_EQ(s.size(), (Size{10, 8}));
  EXPECT_EQ(s.color_at(5, 4), colors::kRed);
  EXPECT_NE(s.color_at(0, 0), colors::kRed);  // darker border
  EXPECT_EQ(s.alpha_at(5, 4), 255);
}

TEST(SpriteTest, IconKnownAndUnknown) {
  const Sprite umbrella = Sprite::icon("umbrella", 24);
  EXPECT_EQ(umbrella.size(), (Size{24, 24}));
  // White card background inside the border (Fig.2).
  EXPECT_EQ(umbrella.color_at(2, 2), colors::kWhite);
  const Sprite unknown1 = Sprite::icon("no_such_icon", 24);
  const Sprite unknown2 = Sprite::icon("no_such_icon", 24);
  EXPECT_EQ(unknown1, unknown2);  // stable fallback art
}

TEST(SpriteTest, DrawBlendsOntoFrame) {
  Frame f = Frame::rgb(40, 40, colors::kBlack);
  Sprite::solid({10, 10}, colors::kWhite).draw(f, {5, 5});
  EXPECT_EQ(f.pixel(10, 10), colors::kWhite);
  EXPECT_EQ(f.pixel(30, 30), colors::kBlack);
}

TEST(SpriteTest, DrawClipsAtEdges) {
  Frame f = Frame::rgb(10, 10, colors::kBlack);
  Sprite::solid({8, 8}, colors::kWhite).draw(f, {6, 6});  // mostly off-frame
  EXPECT_EQ(f.pixel(7, 7), colors::kWhite);
  Sprite::solid({8, 8}, colors::kWhite).draw(f, {-20, -20});  // fully off
}

TEST(SpriteTest, DrawScaledStretches) {
  Frame f = Frame::rgb(64, 64, colors::kBlack);
  Sprite::solid({4, 4}, colors::kGreen).draw_scaled(f, {0, 0, 64, 64});
  EXPECT_EQ(f.pixel(32, 32), colors::kGreen);
}

TEST(SpriteTest, OpacityReducesBlend) {
  Frame f = Frame::rgb(4, 4, colors::kBlack);
  Sprite s = Sprite::solid({4, 4}, colors::kWhite);
  s.set_opacity(64);
  s.draw(f, {0, 0});
  EXPECT_LT(f.pixel(2, 2).r, 100);
  EXPECT_GT(f.pixel(2, 2).r, 20);
}

TEST(SpriteTest, ZeroAlphaPixelsAreTransparent) {
  Sprite s(4, 4);  // all alpha 0
  Frame f = Frame::rgb(4, 4, colors::kRed);
  s.draw(f, {0, 0});
  EXPECT_EQ(f.pixel(1, 1), colors::kRed);
}

TEST(SpriteSpecTest, ParsesValidSpecs) {
  auto icon = Sprite::from_spec("icon:key:32");
  ASSERT_TRUE(icon.ok());
  EXPECT_EQ(icon.value().size(), (Size{32, 32}));

  auto icon_default = Sprite::from_spec("icon:coin");
  ASSERT_TRUE(icon_default.ok());
  EXPECT_EQ(icon_default.value().size(), (Size{24, 24}));

  auto solid = Sprite::from_spec("solid:10x6:200,30,40");
  ASSERT_TRUE(solid.ok());
  EXPECT_EQ(solid.value().size(), (Size{10, 6}));
  EXPECT_EQ(solid.value().color_at(5, 3), (Color{200, 30, 40}));

  auto button = Sprite::from_spec("button:20x10:70,90,150");
  ASSERT_TRUE(button.ok());
  EXPECT_EQ(button.value().size(), (Size{20, 10}));

  auto empty = Sprite::from_spec("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(SpriteSpecTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"icon", "icon:", "icon:key:0", "icon:key:99999", "solid", "solid:10x6",
        "solid:0x6:1,2,3", "solid:10x6:300,0,0", "solid:ZxQ:1,2,3",
        "wobble:10x6:1,2,3", "button:10:1,2,3"}) {
    EXPECT_FALSE(Sprite::from_spec(bad).ok()) << bad;
  }
}

// --- Placement ------------------------------------------------------------------

TEST(PlacementTest, ActiveWindow) {
  Placement p;
  p.first_frame = 10;
  p.frame_count = 5;
  EXPECT_FALSE(p.active_at(9));
  EXPECT_TRUE(p.active_at(10));
  EXPECT_TRUE(p.active_at(14));
  EXPECT_FALSE(p.active_at(15));
}

TEST(PlacementTest, OpenEndedWindow) {
  Placement p;
  p.first_frame = 3;
  p.frame_count = -1;
  EXPECT_FALSE(p.active_at(2));
  EXPECT_TRUE(p.active_at(3));
  EXPECT_TRUE(p.active_at(100000));
}

TEST(ObjectKindTest, NamesRoundTrip) {
  for (auto kind : {ObjectKind::kButton, ObjectKind::kImage, ObjectKind::kItem,
                    ObjectKind::kNpc, ObjectKind::kReward}) {
    auto parsed = object_kind_from_name(object_kind_name(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(object_kind_from_name("widget").ok());
}

// --- Hit testing -----------------------------------------------------------------

std::vector<HitTarget> demo_targets() {
  return {
      {ObjectId{1}, {0, 0, 100, 100}, 0, true},     // background
      {ObjectId{2}, {10, 10, 30, 30}, 1, true},     // mid layer
      {ObjectId{3}, {20, 20, 30, 30}, 2, true},     // top layer
      {ObjectId{4}, {60, 60, 20, 20}, 1, false},    // inactive
  };
}

TEST(HitTestTest, TopmostZWins) {
  LinearHitTester tester;
  tester.rebuild(demo_targets());
  EXPECT_EQ(tester.hit({25, 25}), ObjectId{3});  // overlaps 1,2,3 -> top z
  EXPECT_EQ(tester.hit({12, 12}), ObjectId{2});
  EXPECT_EQ(tester.hit({5, 5}), ObjectId{1});
  EXPECT_EQ(tester.hit({200, 200}), ObjectId{});
}

TEST(HitTestTest, InactiveTargetsIgnored) {
  LinearHitTester tester;
  tester.rebuild(demo_targets());
  EXPECT_EQ(tester.hit({65, 65}), ObjectId{1});  // 4 is inactive
}

TEST(HitTestTest, EqualZLaterInsertionWins) {
  LinearHitTester tester;
  tester.rebuild({{ObjectId{1}, {0, 0, 50, 50}, 0, true},
                  {ObjectId{2}, {0, 0, 50, 50}, 0, true}});
  EXPECT_EQ(tester.hit({10, 10}), ObjectId{2});  // painted later -> on top
}

TEST(HitTestTest, HitAllOrdersTopmostFirst) {
  LinearHitTester tester;
  tester.rebuild(demo_targets());
  const auto all = tester.hit_all({25, 25});
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], ObjectId{3});
  EXPECT_EQ(all[1], ObjectId{2});
  EXPECT_EQ(all[2], ObjectId{1});
}

TEST(HitTestTest, GridMatchesLinearOnDemoTargets) {
  GridHitTester grid({100, 100});
  LinearHitTester linear;
  grid.rebuild(demo_targets());
  linear.rebuild(demo_targets());
  for (i32 y = 0; y < 100; y += 3) {
    for (i32 x = 0; x < 100; x += 3) {
      EXPECT_EQ(grid.hit({x, y}), linear.hit({x, y})) << x << "," << y;
    }
  }
}

TEST(HitTestTest, GridMatchesLinearUnderEqualZTies) {
  // Heavily overlapping targets on two z levels, so most hits are decided
  // by the equal-z rule (later insertion wins). hit_all's first entry is
  // an independent oracle: it sorts the full hit list instead of picking
  // in one pass.
  Rng rng(20260419);
  for (int round = 0; round < 20; ++round) {
    std::vector<HitTarget> targets;
    const int n = static_cast<int>(rng.range(2, 60));
    for (int i = 0; i < n; ++i) {
      targets.push_back({ObjectId{static_cast<u32>(i + 1)},
                         {static_cast<i32>(rng.range(0, 60)),
                          static_cast<i32>(rng.range(0, 60)),
                          static_cast<i32>(rng.range(20, 60)),
                          static_cast<i32>(rng.range(20, 60))},
                         static_cast<i32>(rng.range(0, 1)),
                         rng.chance(0.85)});
    }
    GridHitTester grid({100, 100});
    LinearHitTester linear;
    grid.rebuild(targets);
    linear.rebuild(targets);
    for (int q = 0; q < 200; ++q) {
      const Point p{static_cast<i32>(rng.range(0, 99)),
                    static_cast<i32>(rng.range(0, 99))};
      const auto all = linear.hit_all(p);
      const ObjectId top = all.empty() ? ObjectId{} : all.front();
      EXPECT_EQ(linear.hit(p), top) << "round " << round << " " << to_string(p);
      EXPECT_EQ(grid.hit(p), top) << "round " << round << " " << to_string(p);
    }
  }
}

TEST(HitTestTest, GridHandlesOutOfBoundsPoints) {
  GridHitTester grid({100, 100});
  grid.rebuild(demo_targets());
  EXPECT_EQ(grid.hit({-1, 5}), ObjectId{});
  EXPECT_EQ(grid.hit({100, 5}), ObjectId{});
  EXPECT_EQ(grid.hit({5, 1000}), ObjectId{});
}

TEST(HitTestTest, EmptyTargets) {
  GridHitTester grid({100, 100});
  grid.rebuild({});
  EXPECT_EQ(grid.hit({50, 50}), ObjectId{});
  EXPECT_TRUE(grid.hit_all({50, 50}).empty());
}

/// Property: grid and linear agree on random target sets and random
/// queries — the E7 ablation is valid only if both are exact.
struct HitSweepCase {
  int target_count;
  u64 seed;
};

class HitTesterEquivalence : public ::testing::TestWithParam<HitSweepCase> {};

TEST_P(HitTesterEquivalence, GridEqualsLinear) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  const Size frame{320, 240};

  std::vector<HitTarget> targets;
  for (int i = 0; i < param.target_count; ++i) {
    HitTarget t;
    t.id = ObjectId{static_cast<u32>(i + 1)};
    t.rect = {static_cast<i32>(rng.range(-20, 320)),
              static_cast<i32>(rng.range(-20, 240)),
              static_cast<i32>(rng.range(1, 80)),
              static_cast<i32>(rng.range(1, 80))};
    t.z = static_cast<i32>(rng.range(0, 5));
    t.active = rng.chance(0.9);
    targets.push_back(t);
  }

  GridHitTester grid(frame);
  LinearHitTester linear;
  grid.rebuild(targets);
  linear.rebuild(targets);

  for (int q = 0; q < 500; ++q) {
    const Point p{static_cast<i32>(rng.range(0, 319)),
                  static_cast<i32>(rng.range(0, 239))};
    EXPECT_EQ(grid.hit(p), linear.hit(p)) << to_string(p);
    EXPECT_EQ(grid.hit_all(p), linear.hit_all(p)) << to_string(p);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HitTesterEquivalence,
                         ::testing::Values(HitSweepCase{1, 1},
                                           HitSweepCase{5, 2},
                                           HitSweepCase{20, 3},
                                           HitSweepCase{100, 4},
                                           HitSweepCase{500, 5}));

}  // namespace
}  // namespace vgbl
