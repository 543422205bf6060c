// Profiles of the six benchmark models of Table 4, synthesized from the published
// architectures: tensor counts match Table 5 (VGG16 32, ResNet101 314, UGATIT 148,
// BERT-base 207, GPT2 148, LSTM 10) and total sizes match Table 4. Backward-computation
// times are distributed FLOPs-proportionally and scaled to V100-class single-GPU
// iteration times (DESIGN.md §2: substitution for the paper's profiling runs).
#ifndef SRC_MODELS_MODEL_ZOO_H_
#define SRC_MODELS_MODEL_ZOO_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/models/model_profile.h"

namespace espresso {

ModelProfile Vgg16();
ModelProfile ResNet101();
ModelProfile Ugatit();
ModelProfile BertBase();
ModelProfile Gpt2();
ModelProfile Lstm();

// All six models, in the paper's Table 4 order.
std::vector<ModelProfile> AllModels();

// Lookup by name ("vgg16", "resnet101", "ugatit", "bert-base", "gpt2", "lstm");
// nullopt for any other name.
std::optional<ModelProfile> FindModel(std::string_view name);

// FindModel for a name that must be in the zoo (aborts otherwise).
ModelProfile GetModel(std::string_view name);

}  // namespace espresso

#endif  // SRC_MODELS_MODEL_ZOO_H_
