#include "src/models/model_zoo.h"

#include <algorithm>

#include "src/util/logging.h"

namespace espresso {

namespace {

// Collects layers in forward order with relative compute weights, then finalizes into a
// backward-ordered profile with times distributed weight-proportionally.
class ModelBuilder {
 public:
  void Add(std::string name, size_t elements, double compute_weight) {
    ESP_CHECK_GT(elements, 0u);
    ESP_CHECK_GT(compute_weight, 0.0);
    forward_.push_back(TensorSpec{std::move(name), elements, compute_weight});
  }

  ModelProfile Finalize(std::string model_name, double backward_s, double forward_s,
                        double optimizer_s, size_t batch_size, std::string unit) {
    ModelProfile profile;
    profile.name = std::move(model_name);
    profile.forward_time_s = forward_s;
    profile.optimizer_time_s = optimizer_s;
    profile.batch_size = batch_size;
    profile.throughput_unit = std::move(unit);
    double total_weight = 0.0;
    for (const auto& t : forward_) {
      total_weight += t.backward_time_s;  // holds the raw weight until normalization
    }
    profile.tensors.assign(forward_.rbegin(), forward_.rend());  // backward order
    for (auto& t : profile.tensors) {
      t.backward_time_s = backward_s * t.backward_time_s / total_weight;
    }
    return profile;
  }

 private:
  std::vector<TensorSpec> forward_;
};

}  // namespace

ModelProfile Vgg16() {
  ModelBuilder b;
  // (in_channels, out_channels, output spatial side) per conv layer, input 224x224.
  struct Conv {
    size_t in, out, spatial;
  };
  const Conv convs[] = {
      {3, 64, 224},    {64, 64, 224},  {64, 128, 112},  {128, 128, 112}, {128, 256, 56},
      {256, 256, 56},  {256, 256, 56}, {256, 512, 28},  {512, 512, 28},  {512, 512, 28},
      {512, 512, 14},  {512, 512, 14}, {512, 512, 14},
  };
  int index = 0;
  for (const Conv& c : convs) {
    const size_t weight_elems = c.in * c.out * 9;  // 3x3 kernels
    // FLOPs ~ params * spatial^2; normalized to giga-units for readability.
    const double flops = static_cast<double>(weight_elems) *
                         static_cast<double>(c.spatial * c.spatial) / 1e9;
    b.Add("conv" + std::to_string(index) + ".weight", weight_elems, flops);
    b.Add("conv" + std::to_string(index) + ".bias", c.out, 0.001);
    ++index;
  }
  // Fully connected layers: fc6 dominates the model size (the reason VGG16 is the
  // paper's most communication-bound vision model).
  const size_t fc_sizes[][2] = {{25088, 4096}, {4096, 4096}, {4096, 1000}};
  for (int f = 0; f < 3; ++f) {
    const size_t weight_elems = fc_sizes[f][0] * fc_sizes[f][1];
    b.Add("fc" + std::to_string(6 + f) + ".weight", weight_elems,
          static_cast<double>(weight_elems) / 1e9);
    b.Add("fc" + std::to_string(6 + f) + ".bias", fc_sizes[f][1], 0.001);
  }
  return b.Finalize("vgg16", /*backward_s=*/0.110, /*forward_s=*/0.055,
                    /*optimizer_s=*/0.004, /*batch_size=*/32, "images/s");
}

ModelProfile ResNet101() {
  ModelBuilder b;
  // Stem: 7x7 conv 3->64 + BN.
  b.Add("stem.conv.weight", 3 * 64 * 49, 0.7);
  b.Add("stem.bn.weight", 64, 0.001);
  b.Add("stem.bn.bias", 64, 0.001);
  // Bottleneck stages: {blocks, mid_channels, out_channels, output spatial side}.
  struct Stage {
    int blocks;
    size_t mid, out, spatial;
  };
  const Stage stages[] = {{3, 64, 256, 56}, {4, 128, 512, 28}, {23, 256, 1024, 14},
                          {3, 512, 2048, 7}};
  size_t in = 64;
  int stage_index = 0;
  for (const Stage& s : stages) {
    for (int block = 0; block < s.blocks; ++block) {
      const std::string prefix =
          "layer" + std::to_string(stage_index + 1) + "." + std::to_string(block);
      auto add_conv = [&](const std::string& tag, size_t cin, size_t cout, size_t k) {
        const size_t weight_elems = cin * cout * k * k;
        const double flops = static_cast<double>(weight_elems) *
                             static_cast<double>(s.spatial * s.spatial) / 1e9;
        b.Add(prefix + "." + tag + ".weight", weight_elems, std::max(flops, 0.001));
        b.Add(prefix + "." + tag + ".bn.weight", cout, 0.001);
        b.Add(prefix + "." + tag + ".bn.bias", cout, 0.001);
      };
      add_conv("conv1", in, s.mid, 1);
      add_conv("conv2", s.mid, s.mid, 3);
      add_conv("conv3", s.mid, s.out, 1);
      if (block == 0) {
        add_conv("downsample", in, s.out, 1);
      }
      in = s.out;
    }
    ++stage_index;
  }
  b.Add("fc.weight", 2048 * 1000, 0.1);
  b.Add("fc.bias", 1000, 0.001);
  return b.Finalize("resnet101", /*backward_s=*/0.110, /*forward_s=*/0.055,
                    /*optimizer_s=*/0.004, /*batch_size=*/32, "images/s");
}

ModelProfile Ugatit() {
  ModelBuilder b;
  // U-GAT-IT (full variant): two generators + two discriminators; the 2.5 GB size is
  // dominated by the generators' gigantic fully connected layers in the
  // CAM/AdaLIN blocks (256*64*64 -> 256 style MLPs).
  for (int gen = 0; gen < 2; ++gen) {
    const std::string g = "gen" + std::to_string(gen);
    b.Add(g + ".down.conv0.weight", 3ull * 64 * 49, 2.0);
    b.Add(g + ".down.norm0.weight", 64, 0.001);
    b.Add(g + ".down.conv1.weight", 64ull * 128 * 9, 2.0);
    b.Add(g + ".down.norm1.weight", 128, 0.001);
    b.Add(g + ".down.conv2.weight", 128ull * 256 * 9, 2.0);
    b.Add(g + ".down.norm2.weight", 256, 0.001);
    for (int r = 0; r < 6; ++r) {
      const std::string blk = g + ".res" + std::to_string(r);
      b.Add(blk + ".conv1.weight", 256ull * 256 * 9, 1.2);
      b.Add(blk + ".norm1.weight", 256, 0.001);
      b.Add(blk + ".conv2.weight", 256ull * 256 * 9, 1.2);
      b.Add(blk + ".norm2.weight", 256, 0.001);
    }
    // CAM attention + the giant AdaLIN style MLPs (the model-size hot spots: each maps
    // the flattened 64x64x256 feature map to the 256-d style code).
    b.Add(g + ".cam.fc.weight", 256ull * 2, 0.01);
    b.Add(g + ".gamma_fc.weight", 64ull * 64 * 256 * 144, 1.0);  // ~576 MB of params
    b.Add(g + ".beta_fc.weight", 64ull * 64 * 256 * 144, 1.0);
    b.Add(g + ".mlp.fc1.weight", 256ull * 256, 0.01);
    b.Add(g + ".mlp.fc2.weight", 256ull * 256, 0.01);
    b.Add(g + ".up.conv1.weight", 256ull * 128 * 9, 2.0);
    b.Add(g + ".up.norm1.weight", 128, 0.001);
    b.Add(g + ".up.conv2.weight", 128ull * 64 * 9, 2.0);
    b.Add(g + ".up.norm2.weight", 64, 0.001);
    b.Add(g + ".up.conv3.weight", 64ull * 3 * 49, 0.5);
  }
  for (int d = 0; d < 4; ++d) {  // global + local discriminators for both domains
    const std::string disc = "disc" + std::to_string(d);
    size_t in = 3;
    for (int l = 0; l < 5; ++l) {
      const size_t out = std::min<size_t>(64ull << l, 2048);
      b.Add(disc + ".conv" + std::to_string(l) + ".weight", in * out * 16, 0.8);
      b.Add(disc + ".conv" + std::to_string(l) + ".bias", out, 0.001);
      b.Add(disc + ".norm" + std::to_string(l) + ".weight", out, 0.001);
      in = out;
    }
    b.Add(disc + ".cam.fc.weight", in * 2, 0.01);
    b.Add(disc + ".out.weight", in * 16, 0.05);
  }
  return b.Finalize("ugatit", /*backward_s=*/0.370, /*forward_s=*/0.185,
                    /*optimizer_s=*/0.015, /*batch_size=*/2, "images/s");
}

ModelProfile BertBase() {
  ModelBuilder b;
  const size_t h = 768;
  b.Add("embeddings.word.weight", 30522 * h, 0.4);
  b.Add("embeddings.position.weight", 512 * h, 0.02);
  b.Add("embeddings.token_type.weight", 2 * h, 0.001);
  b.Add("embeddings.ln.weight", h, 0.001);
  b.Add("embeddings.ln.bias", h, 0.001);
  for (int l = 0; l < 12; ++l) {
    const std::string p = "encoder.layer" + std::to_string(l);
    auto add_linear = [&](const std::string& tag, size_t rows, size_t cols, double w) {
      b.Add(p + "." + tag + ".weight", rows * cols, w);
      b.Add(p + "." + tag + ".bias", cols, 0.001);
    };
    add_linear("attn.q", h, h, 0.5);
    add_linear("attn.k", h, h, 0.5);
    add_linear("attn.v", h, h, 0.5);
    add_linear("attn.out", h, h, 0.5);
    b.Add(p + ".attn.ln.weight", h, 0.001);
    b.Add(p + ".attn.ln.bias", h, 0.001);
    add_linear("ffn.fc1", h, 4 * h, 2.0);
    add_linear("ffn.fc2", 4 * h, h, 2.0);
    b.Add(p + ".ffn.ln.weight", h, 0.001);
    b.Add(p + ".ffn.ln.bias", h, 0.001);
  }
  // Pooler + SQuAD span head + prediction-head transform (fine-tuning configuration).
  b.Add("pooler.dense.weight", h * h, 0.05);
  b.Add("pooler.dense.bias", h, 0.001);
  b.Add("qa.transform.weight", h * h, 0.05);
  b.Add("qa.transform.bias", h, 0.001);
  b.Add("qa.transform.ln.weight", h, 0.001);
  b.Add("qa.transform.ln.bias", h, 0.001);
  b.Add("qa.outputs.weight", h * 2, 0.001);
  b.Add("qa.outputs.bias", 2, 0.001);
  b.Add("cls.seq_relationship.weight", h * 2, 0.001);
  b.Add("cls.seq_relationship.bias", 2, 0.001);
  return b.Finalize("bert-base", /*backward_s=*/0.066, /*forward_s=*/0.033,
                    /*optimizer_s=*/0.004, /*batch_size=*/1024, "tokens/s");
}

ModelProfile Gpt2() {
  ModelBuilder b;
  const size_t h = 768;
  b.Add("wte.weight", 50257 * h, 0.5);
  b.Add("wpe.weight", 1024 * h, 0.02);
  for (int l = 0; l < 12; ++l) {
    const std::string p = "h" + std::to_string(l);
    b.Add(p + ".ln1.weight", h, 0.001);
    b.Add(p + ".ln1.bias", h, 0.001);
    b.Add(p + ".attn.qkv.weight", h * 3 * h, 1.5);
    b.Add(p + ".attn.qkv.bias", 3 * h, 0.001);
    b.Add(p + ".attn.proj.weight", h * h, 0.5);
    b.Add(p + ".attn.proj.bias", h, 0.001);
    b.Add(p + ".ln2.weight", h, 0.001);
    b.Add(p + ".ln2.bias", h, 0.001);
    b.Add(p + ".mlp.fc.weight", h * 4 * h, 2.0);
    b.Add(p + ".mlp.fc.bias", 4 * h, 0.001);
    b.Add(p + ".mlp.proj.weight", 4 * h * h, 2.0);
    b.Add(p + ".mlp.proj.bias", h, 0.001);
  }
  b.Add("ln_f.weight", h, 0.001);
  b.Add("ln_f.bias", h, 0.001);
  return b.Finalize("gpt2", /*backward_s=*/0.078, /*forward_s=*/0.040,
                    /*optimizer_s=*/0.005, /*batch_size=*/80, "tokens/s");
}

ModelProfile Lstm() {
  ModelBuilder b;
  // Merity et al. [41] word-level LSTM scaled to Table 4's 328 MB: a wide embedding and
  // three LSTM layers — ten tensors total, each tens of megabytes, the paper's example
  // of a "few huge tensors" model (Property 1's bubble discussion, §4.4.2).
  const size_t vocab = 33278;
  const size_t emb = 1250;
  const size_t hidden = 1450;
  b.Add("embedding.weight", vocab * emb, 0.5);                       // ~166 MB
  b.Add("lstm0.weight_ih", 4 * hidden * emb, 1.0);
  b.Add("lstm0.weight_hh", 4 * hidden * hidden, 1.2);
  b.Add("lstm0.bias", 8 * hidden, 0.001);
  b.Add("lstm1.weight_ih", 4 * hidden * hidden, 1.2);
  b.Add("lstm1.weight_hh", 4 * hidden * hidden, 1.2);
  b.Add("lstm1.bias", 8 * hidden, 0.001);
  b.Add("lstm2.weight_ih", 4 * emb * hidden, 1.0);
  b.Add("lstm2.weight_hh", 4 * emb * emb, 0.8);
  b.Add("decoder.bias", vocab, 0.01);  // decoder weight tied to the embedding
  return b.Finalize("lstm", /*backward_s=*/0.100, /*forward_s=*/0.050,
                    /*optimizer_s=*/0.004, /*batch_size=*/80, "tokens/s");
}

std::vector<ModelProfile> AllModels() {
  return {Vgg16(), ResNet101(), Ugatit(), BertBase(), Gpt2(), Lstm()};
}

std::optional<ModelProfile> FindModel(std::string_view name) {
  if (name == "vgg16") {
    return Vgg16();
  }
  if (name == "resnet101") {
    return ResNet101();
  }
  if (name == "ugatit") {
    return Ugatit();
  }
  if (name == "bert-base" || name == "bert") {
    return BertBase();
  }
  if (name == "gpt2") {
    return Gpt2();
  }
  if (name == "lstm") {
    return Lstm();
  }
  return std::nullopt;
}

ModelProfile GetModel(std::string_view name) {
  std::optional<ModelProfile> model = FindModel(name);
  ESP_CHECK(model.has_value()) << "unknown model: " << name;
  return *std::move(model);
}

}  // namespace espresso
