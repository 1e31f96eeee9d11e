/**
 * @file
 * EvalRequest tests: the serializable request surface round-trips
 * through canonical JSON, rejects unknown keys, digests stably, and
 * an evaluated response carries its request's digest.
 */

#include <gtest/gtest.h>

#include "driver/evaluator.hh"
#include "support/diag.hh"

namespace predilp
{
namespace
{

EvalRequest
nonDefaultRequest()
{
    EvalRequest request;
    request.workloads = {"cmp", "wc"};
    request.models = {Model::FullPred, Model::Superblock};
    request.sim.machine = issue4Branch1();
    request.sim.perfectCaches = false;
    request.sim.btbEntries = 256;
    request.sim.predictor = BranchPredictor::OneBit;
    request.ablation.orTree = false;
    request.scale = 2;
    return request;
}

TEST(EvalRequest, JsonRoundTripIsExact)
{
    EvalRequest request = nonDefaultRequest();
    EvalRequest back = EvalRequest::fromJson(
        JsonValue::parse(request.toJson().dump()));
    EXPECT_TRUE(back == request);
    EXPECT_EQ(back.toJson().dump(), request.toJson().dump());
}

TEST(EvalRequest, UnknownKeysRejected)
{
    EXPECT_THROW(EvalRequest::fromJson(
                     JsonValue::parse("{\"workload\": [\"cmp\"]}")),
                 FatalError);
    EXPECT_THROW(EvalRequest::fromJson(JsonValue::parse(
                     "{\"models\": [\"hyperblock\"]}")),
                 FatalError);
    EXPECT_THROW(
        EvalRequest::fromJson(JsonValue::parse("{\"scale\": 0}")),
        FatalError);
}

TEST(EvalRequest, EffectiveModelsExpandsEmptyDefault)
{
    EvalRequest request;
    EXPECT_EQ(request.effectiveModels(),
              (std::vector<Model>{Model::Superblock, Model::CondMove,
                                  Model::FullPred}));
    request.models = {Model::CondMove};
    EXPECT_EQ(request.effectiveModels(),
              std::vector<Model>{Model::CondMove});
}

TEST(EvalRequest, DigestCoversEveryComponent)
{
    const EvalRequest base;
    const std::string baseDigest = base.requestDigest();
    EXPECT_EQ(baseDigest.substr(0, 3), "v1:");
    EXPECT_EQ(base.requestDigest(), EvalRequest{}.requestDigest());

    EvalRequest changed = base;
    changed.workloads = {"cmp"};
    EXPECT_NE(changed.requestDigest(), baseDigest);

    changed = base;
    changed.sim.btbEntries = 512;
    EXPECT_NE(changed.requestDigest(), baseDigest);

    changed = base;
    changed.ablation.unrolling = false;
    EXPECT_NE(changed.requestDigest(), baseDigest);

    changed = base;
    changed.scale = 3;
    EXPECT_NE(changed.requestDigest(), baseDigest);
}

TEST(EvalRequest, FromSuiteConfigMapsEveryField)
{
    SuiteConfig config;
    config.machine = issue8Branch2();
    config.perfectCaches = false;
    config.ablation.promotion = false;
    config.scaleMultiplier = 4;
    config.maxDynInstrs = 1000;
    EvalRequest request = EvalRequest::fromSuiteConfig(config);
    EXPECT_EQ(request.sim.machine.branchesPerCycle, 2);
    EXPECT_FALSE(request.sim.perfectCaches);
    EXPECT_EQ(request.sim.maxDynInstrs, 1000u);
    EXPECT_FALSE(request.ablation.promotion);
    EXPECT_EQ(request.scale, 4);
    EXPECT_TRUE(request.workloads.empty());
    EXPECT_TRUE(request.models.empty());
}

TEST(EvalRequest, ResponseCarriesRequestDigest)
{
    SuiteConfig config;
    config.machine = issue8Branch1();

    SuiteEvaluator evaluator(1);
    EvalRequest request = EvalRequest::fromSuiteConfig(config);
    request.workloads = {"cmp"};
    EvalResponse response = evaluator.evaluate(request);
    EXPECT_EQ(response.requestDigest, request.requestDigest());
    ASSERT_EQ(response.results.size(), 1u);
    EXPECT_EQ(response.results[0].name, "cmp");
}

TEST(EvalRequest, UnknownWorkloadThrows)
{
    SuiteEvaluator evaluator(1);
    EvalRequest request;
    request.workloads = {"no_such_workload"};
    EXPECT_THROW(evaluator.evaluate(request), FatalError);
}

} // namespace
} // namespace predilp
