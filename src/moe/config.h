// Model and parallelism configuration (paper Tables 1 and 2).
//
// Symbols follow the paper: L transformer layers, E experts, topk experts per
// token, N token embedding size, K expert feed-forward hidden size; the
// parallel world W = TP x EP.
//
// Layout conventions (matching Megatron-LM's hybrid MoE parallelism):
//  * Rank r belongs to EP group r / TP and is TP lane r % TP within it.
//  * Expert e is owned by EP group e / (E / EP); its weights are sharded
//    along the hidden (K) dimension across the group's TP lanes.
//  * M is the GLOBAL token count of one iteration. Tokens are block-sharded
//    across EP groups (M / EP per group) and replicated across the TP lanes
//    of a group (tensor parallelism keeps full activations per lane).
//    Dispatch traffic therefore flows lane-matched between EP groups, and
//    tensor parallelism adds a reduce-scatter of layer1 partial sums across
//    each group's lanes.
#pragma once

#include <cstdint>
#include <string>

namespace comet {

struct ModelConfig {
  std::string name;
  int64_t layers = 0;       // L
  int64_t num_experts = 0;  // E
  int64_t topk = 0;
  int64_t embedding = 0;   // N
  int64_t ffn_hidden = 0;  // K
  // Attention heads (for the end-to-end runner's non-MoE cost); not part of
  // Table 2 but taken from the public model cards.
  int64_t num_heads = 32;
};

// Table 2 presets.
ModelConfig Mixtral8x7B();
ModelConfig Qwen2Moe();
ModelConfig Phi35Moe();

struct ParallelConfig {
  int tp = 1;
  int ep = 1;

  int world() const { return tp * ep; }
  std::string ToString() const;
};

// Placement of experts and tokens over the parallel world.
class Placement {
 public:
  // Empty placement (total_tokens == 0); a workspace default until a real
  // placement is copy-assigned in. Every accessor that divides by shape
  // fields requires a validated placement built by the checked constructor.
  Placement() = default;
  Placement(const ModelConfig& model, const ParallelConfig& parallel,
            int64_t total_tokens);

  // Re-points an existing placement at a new iteration's token count without
  // reconstructing it (model/parallel checks already hold; the token-count
  // checks from the constructor are re-applied). Allocation-free.
  void ResetTotalTokens(int64_t total_tokens);

  const ModelConfig& model() const { return model_; }
  const ParallelConfig& parallel() const { return parallel_; }
  int world() const { return parallel_.world(); }

  int64_t total_tokens() const { return total_tokens_; }  // global M
  int64_t tokens_per_group() const;                       // M / EP

  int EpGroupOfRank(int rank) const;  // rank / TP
  int TpLaneOfRank(int rank) const;   // rank % TP
  int RankOf(int ep_group, int tp_lane) const;

  int EpGroupOfExpert(int64_t expert) const;
  int64_t ExpertsPerGroup() const;  // E / EP
  // Local index of `expert` among the experts of its EP group.
  int64_t LocalExpertIndex(int64_t expert) const;

  // Hidden size each TP lane holds: K / TP.
  int64_t HiddenPerTpRank() const;

  // Home EP group of global token `t` (block-sharded).
  int HomeGroupOfToken(int64_t token) const;
  // Global id of the first token of `group`.
  int64_t FirstTokenOfGroup(int group) const;

 private:
  ModelConfig model_;
  ParallelConfig parallel_;
  int64_t total_tokens_ = 0;
};

}  // namespace comet
