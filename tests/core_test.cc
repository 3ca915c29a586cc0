#include "core/probkb.h"

#include <gtest/gtest.h>

#include <cmath>

#include "datagen/synthetic_kb.h"
#include "quality/rule_cleaning.h"
#include "tests/test_util.h"

namespace probkb {
namespace {

ExpansionOptions FastOptions() {
  ExpansionOptions options;
  options.gibbs.burn_in_sweeps = 100;
  options.gibbs.sample_sweeps = 500;
  return options;
}

TEST(ExpandKnowledgeBaseTest, PaperExampleEndToEnd) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  auto result = ExpandKnowledgeBase(kb, FastOptions());
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->t_pi->NumRows(), 7);
  EXPECT_EQ(result->t_phi->NumRows(), 8);
  EXPECT_EQ(result->first_inferred_id, 2);
  EXPECT_EQ(result->graph->num_variables(), 7);
  // Inference ran and wrote probabilities back.
  for (int64_t i = 0; i < result->t_pi->NumRows(); ++i) {
    EXPECT_FALSE(result->t_pi->row(i)[tpi::kW].is_null());
  }

  KbQuery query = MakeQuery(kb, *result);
  auto found = query.Find("located_in", std::nullopt, std::nullopt);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found[0].inferred);
  EXPECT_GT(found[0].score, 0.0);
  EXPECT_LT(found[0].score, 1.0);
}

TEST(ExpandKnowledgeBaseTest, InferenceCanBeDisabled) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  ExpansionOptions options = FastOptions();
  options.run_inference = false;
  auto result = ExpandKnowledgeBase(kb, options);
  ASSERT_TRUE(result.ok());
  // Inferred facts keep NULL weights.
  bool any_null = false;
  for (int64_t i = 0; i < result->t_pi->NumRows(); ++i) {
    any_null = any_null || result->t_pi->row(i)[tpi::kW].is_null();
  }
  EXPECT_TRUE(any_null);
  EXPECT_TRUE(result->inference.marginals.empty());
}

TEST(ExpandKnowledgeBaseTest, MppPathMatchesSingleNode) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.003;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());

  ExpansionOptions options = FastOptions();
  options.run_inference = false;
  options.grounding.max_iterations = 3;
  auto single = ExpandKnowledgeBase(skb->kb, options);
  ASSERT_TRUE(single.ok());

  options.use_mpp = true;
  options.mpp_segments = 4;
  auto mpp = ExpandKnowledgeBase(skb->kb, options);
  ASSERT_TRUE(mpp.ok()) << mpp.status();

  EXPECT_EQ(testutil::TPiAtomSet(*mpp->t_pi),
            testutil::TPiAtomSet(*single->t_pi));
  EXPECT_EQ(testutil::CanonicalizeFactors(*mpp->t_phi, *mpp->t_pi),
            testutil::CanonicalizeFactors(*single->t_phi, *single->t_pi));
}

TEST(ExpandKnowledgeBaseTest, RuleCleaningHonored) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.005;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());

  ExpansionOptions options = FastOptions();
  options.run_inference = false;
  options.grounding.max_iterations = 3;
  auto all_rules = ExpandKnowledgeBase(skb->kb, options);
  ASSERT_TRUE(all_rules.ok());

  options.rule_cleaning_theta = 0.1;
  auto cleaned = ExpandKnowledgeBase(skb->kb, options);
  ASSERT_TRUE(cleaned.ok());
  EXPECT_LT(cleaned->t_pi->NumRows(), all_rules->t_pi->NumRows());
}

TEST(ExpandKnowledgeBaseTest, RuleCleaningMatchesACleanedCopy) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.005;
  cfg.seed = 3;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());
  ExpansionOptions options = FastOptions();
  options.grounding.max_iterations = 3;
  options.rule_cleaning_theta = 0.4;
  auto in_place = ExpandKnowledgeBase(skb->kb, options);
  ASSERT_TRUE(in_place.ok());

  KnowledgeBase copy = skb->kb;
  *copy.mutable_rules() = TopThetaRules(copy.rules(), 0.4);
  ASSERT_LT(copy.rules().size(), skb->kb.rules().size());
  options.rule_cleaning_theta = 1.0;
  auto from_copy = ExpandKnowledgeBase(copy, options);
  ASSERT_TRUE(from_copy.ok());
  // TPi carries the marginals written back, so the digest covers
  // inference too.
  EXPECT_EQ(testutil::TableDigest(*in_place->t_pi),
            testutil::TableDigest(*from_copy->t_pi));
  EXPECT_EQ(testutil::TableDigest(*in_place->t_phi),
            testutil::TableDigest(*from_copy->t_phi));
}

TEST(ExpandKnowledgeBaseTest, UpfrontConstraintsReported) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.005;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());
  ExpansionOptions options = FastOptions();
  options.run_inference = false;
  options.grounding.max_iterations = 2;
  auto result = ExpandKnowledgeBase(skb->kb, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->constraints_deleted_upfront, 0);

  options.constraints_upfront = false;
  auto raw = ExpandKnowledgeBase(skb->kb, options);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->constraints_deleted_upfront, 0);
}

TEST(ExpandKnowledgeBaseTest, ValidatesOptions) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  ExpansionOptions options;
  options.rule_cleaning_theta = -0.5;
  EXPECT_FALSE(ExpandKnowledgeBase(kb, options).ok());
  options = ExpansionOptions{};
  options.use_mpp = true;
  options.mpp_segments = 0;
  EXPECT_FALSE(ExpandKnowledgeBase(kb, options).ok());
}

TEST(ExpandKnowledgeBaseTest, SourceKbUntouched) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  size_t facts_before = kb.facts().size();
  size_t rules_before = kb.rules().size();
  ExpansionOptions options = FastOptions();
  options.rule_cleaning_theta = 0.5;
  auto result = ExpandKnowledgeBase(kb, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(kb.facts().size(), facts_before);
  EXPECT_EQ(kb.rules().size(), rules_before);
}

}  // namespace
}  // namespace probkb
