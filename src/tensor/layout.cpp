#include "tensor/layout.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
// The pinned-ISA (RPOL_SIMD=ON) kernels below use explicit __m256 FMAs.
// vfmadd231ps performs an independent single-rounding fma per lane —
// exactly __builtin_fmaf (ops.h madd) applied to 8 elements — so the
// vector kernels are bitwise equal to the scalar reference loops they
// shadow; the scalar loops remain the RPOL_SIMD=OFF build's kernels.
#define RPOL_LAYOUT_AVX2 1
#endif

#include "obs/obs.h"
#include "runtime/thread_pool.h"

namespace rpol::layout {

namespace {

// Same sampled kernel timer as tensor/ops.cpp (1-in-8 while tracing).
class KernelTimer {
 public:
  KernelTimer(std::atomic<std::uint64_t>& tick, const char* histogram)
      : sampled_(obs::sample_tick(tick, 8)),
        name_(histogram),
        start_(sampled_ ? obs::now_ns() : 0) {}
  ~KernelTimer() {
    if (sampled_) obs::histogram(name_).record(obs::now_ns() - start_);
  }
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  bool sampled_;
  const char* name_;
  std::uint64_t start_;
};

// Valid output-x range for kernel column kw (same hoisting as ops.cpp):
// the x for which in_x = x*stride + kw - padding lies in [0, w).
struct XRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;  // exclusive
};

XRange valid_x_range(std::int64_t ow, std::int64_t w, std::int64_t kw,
                     std::int64_t stride, std::int64_t padding) {
  XRange r;
  r.lo = kw >= padding ? 0 : (padding - kw + stride - 1) / stride;
  const std::int64_t num = w - 1 - kw + padding;
  r.hi = num < 0 ? 0 : std::min(ow, num / stride + 1);
  r.lo = std::min(r.lo, r.hi);
  return r;
}

// -1 = unset (fall through to the environment), 0/1 = forced.
std::atomic<int> g_direct_override{-1};

bool direct_conv_env_default() {
  static const bool enabled = [] {
    const char* env = std::getenv("RPOL_DIRECT_CONV");
    return env == nullptr || !(env[0] == '0' && env[1] == '\0');
  }();
  return enabled;
}

}  // namespace

bool direct_conv_enabled() {
  const int forced = g_direct_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced == 1;
  return direct_conv_env_default();
}

void set_direct_conv_enabled(bool enabled) {
  g_direct_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Reorders. Pure gathers/scatters — each destination element is written by
// exactly one thread and no arithmetic is performed, so they cannot perturb
// results regardless of partitioning.

Tensor nchw_to_nchw8c(const Tensor& input, std::int64_t padding) {
  if (input.rank() != 4) {
    throw std::invalid_argument("nchw_to_nchw8c expects NCHW input");
  }
  const std::int64_t n = input.dim(0), c = input.dim(1);
  const std::int64_t h = input.dim(2), w = input.dim(3);
  const std::int64_t hp = h + 2 * padding, wp = w + 2 * padding;
  const std::int64_t cb = blocks(c);
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.reorder_nchw8c_ns");
  // Zero-init covers the padded lanes AND the spatial padding ring: the
  // conv kernels then multiply explicit +0s exactly where the fallback's
  // im2col writes them, so no tap ever needs a bounds check.
  Tensor out({n, cb, hp, wp, kBlock});
  const float* pin = input.data();
  float* pout = out.data();
  runtime::parallel_for(0, n * cb, 1, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t slice = s0; slice < s1; ++slice) {
      const std::int64_t img = slice / cb;
      const std::int64_t b = slice % cb;
      const std::int64_t lanes = std::min(kBlock, c - b * kBlock);
      float* dst = pout + slice * hp * wp * kBlock;
      for (std::int64_t ci = 0; ci < lanes; ++ci) {
        const float* src = pin + (img * c + b * kBlock + ci) * h * w;
        for (std::int64_t y = 0; y < h; ++y) {
          float* drow = dst + ((y + padding) * wp + padding) * kBlock;
          for (std::int64_t x = 0; x < w; ++x) {
            drow[x * kBlock + ci] = src[y * w + x];
          }
        }
      }
    }
  });
  return out;
}

Tensor nchw8c_to_nchw(const Tensor& blocked, std::int64_t channels) {
  if (blocked.rank() != 5 || blocked.dim(4) != kBlock) {
    throw std::invalid_argument("nchw8c_to_nchw expects nChw8c input");
  }
  const std::int64_t n = blocked.dim(0), cb = blocked.dim(1);
  const std::int64_t h = blocked.dim(2), w = blocked.dim(3);
  if (cb != blocks(channels)) {
    throw std::invalid_argument("nchw8c_to_nchw channel-block mismatch");
  }
  const std::int64_t hw = h * w;
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.reorder_nchw_ns");
  Tensor out({n, channels, h, w});
  const float* pin = blocked.data();
  float* pout = out.data();
  runtime::parallel_for(
      0, n * channels, 1, [&](std::int64_t s0, std::int64_t s1) {
        for (std::int64_t slice = s0; slice < s1; ++slice) {
          const std::int64_t img = slice / channels;
          const std::int64_t ch = slice % channels;
          const float* src =
              pin + ((img * cb + ch / kBlock) * hw) * kBlock + ch % kBlock;
          float* dst = pout + slice * hw;
          for (std::int64_t i = 0; i < hw; ++i) dst[i] = src[i * kBlock];
        }
      });
  return out;
}

Tensor oihw_to_oihw8i8o(const Tensor& weight, const Conv2dSpec& spec) {
  const std::int64_t o = spec.out_channels, c = spec.in_channels;
  const std::int64_t k = spec.kernel;
  const std::int64_t ckk = c * k * k;
  if (weight.rank() != 2 || weight.dim(0) != o || weight.dim(1) != ckk) {
    throw std::invalid_argument("oihw_to_oihw8i8o weight shape mismatch");
  }
  const std::int64_t ob = blocks(o), cb = blocks(c);
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.reorder_oihw8i8o_ns");
  Tensor out({ob, cb, k, k, kBlock, kBlock});  // zero-init pads both axes
  const float* pw = weight.data();
  float* po = out.data();
  runtime::parallel_for(0, ob * cb, 1, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t slice = s0; slice < s1; ++slice) {
      const std::int64_t obi = slice / cb;
      const std::int64_t ibi = slice % cb;
      const std::int64_t o_lanes = std::min(kBlock, o - obi * kBlock);
      const std::int64_t i_lanes = std::min(kBlock, c - ibi * kBlock);
      float* blk = po + slice * k * k * kBlock * kBlock;
      for (std::int64_t kh = 0; kh < k; ++kh) {
        for (std::int64_t kw = 0; kw < k; ++kw) {
          for (std::int64_t ii = 0; ii < i_lanes; ++ii) {
            const std::int64_t kk =
                ((ibi * kBlock + ii) * k + kh) * k + kw;
            float* dst = blk + ((kh * k + kw) * kBlock + ii) * kBlock;
            for (std::int64_t oo = 0; oo < o_lanes; ++oo) {
              dst[oo] = pw[(obi * kBlock + oo) * ckk + kk];
            }
          }
        }
      }
    }
  });
  return out;
}

Tensor oihw8i8o_to_oihw(const Tensor& blocked, const Conv2dSpec& spec) {
  const std::int64_t o = spec.out_channels, c = spec.in_channels;
  const std::int64_t k = spec.kernel;
  const std::int64_t ob = blocks(o), cb = blocks(c);
  if (blocked.rank() != 6 || blocked.dim(0) != ob || blocked.dim(1) != cb) {
    throw std::invalid_argument("oihw8i8o_to_oihw shape mismatch");
  }
  const std::int64_t ckk = c * k * k;
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.reorder_oihw_ns");
  Tensor out({o, ckk});
  const float* pb = blocked.data();
  float* pw = out.data();
  runtime::parallel_for(0, o, 1, [&](std::int64_t o0, std::int64_t o1) {
    for (std::int64_t oc = o0; oc < o1; ++oc) {
      const std::int64_t obi = oc / kBlock, oo = oc % kBlock;
      for (std::int64_t ic = 0; ic < c; ++ic) {
        const std::int64_t ibi = ic / kBlock, ii = ic % kBlock;
        const float* blk =
            pb + (obi * cb + ibi) * k * k * kBlock * kBlock;
        for (std::int64_t kh = 0; kh < k; ++kh) {
          for (std::int64_t kw = 0; kw < k; ++kw) {
            pw[oc * ckk + (ic * k + kh) * k + kw] =
                blk[((kh * k + kw) * kBlock + ii) * kBlock + oo];
          }
        }
      }
    }
  });
  return out;
}

ConvWeightPack make_conv_weight_pack(const Tensor& weight,
                                     const Conv2dSpec& spec) {
  ConvWeightPack pack;
  pack.blocked = oihw_to_oihw8i8o(weight, spec);
  // Times only the W^T transpose below; the blocked reorder above has its
  // own histogram (kernel.reorder_oihw8i8o_ns).
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.weight_pack_ns");
  const std::int64_t o = weight.dim(0), ckk = weight.dim(1);
  pack.transposed = Tensor({ckk, o});
  const float* pw = weight.data();
  float* pt = pack.transposed.data();
  runtime::parallel_for(0, ckk, 16, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t kk = r0; kk < r1; ++kk) {
      for (std::int64_t oc = 0; oc < o; ++oc) pt[kk * o + oc] = pw[oc * ckk + kk];
    }
  });
  return pack;
}

// ---------------------------------------------------------------------------
// Direct forward.
//
// Work item = one (img, ocb-pair) output plane; each plane is owned by one
// thread and every output element accumulates serially over taps in the
// im2col patch-row order (ic, kh, kw), so the result is bitwise equal to
// matmul(W, im2col(X)) for any thread count (see layout.h header).

Tensor conv2d_direct_forward(const Tensor& input_blocked,
                             const Tensor& weight_blocked, const Tensor& bias,
                             const Conv2dSpec& spec, std::int64_t in_h,
                             std::int64_t in_w) {
  const std::int64_t n = input_blocked.dim(0);
  const std::int64_t cb = input_blocked.dim(1);
  const std::int64_t c = spec.in_channels, o = spec.out_channels;
  const std::int64_t ob = blocks(o);
  const std::int64_t kernel = spec.kernel, stride = spec.stride,
                     pad = spec.padding;
  const std::int64_t hp = in_h + 2 * pad, wp = in_w + 2 * pad;
  if (cb != blocks(c) || input_blocked.dim(2) != hp ||
      input_blocked.dim(3) != wp) {
    throw std::invalid_argument(
        "conv2d_direct_forward expects pre-padded blocked input");
  }
  const std::int64_t oh = spec.out_size(in_h), ow = spec.out_size(in_w);
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.conv_direct_fwd_ns");
  Tensor out({n, ob, oh, ow, kBlock});
  const float* px = input_blocked.data();
  const float* pw = weight_blocked.data();
  const float* pbias = bias.empty() ? nullptr : bias.data();
  float* py = out.data();
#ifdef RPOL_LAYOUT_AVX2
  constexpr std::int64_t XB = 4;  // max x positions per register tile
#endif

  // A work unit is an (img, ocb-pair) output plane. Within a unit the input-
  // channel block loop is OUTERMOST so one (pair, icb) weight sub-panel
  // (2*k*k*64 floats) stays L1-resident across the whole plane — with the x
  // loop outermost, deep-channel shapes re-stream the full weight panel per
  // x-block and go memory-bound. Partial sums live in a per-unit plane
  // buffer; spilling an fp32 accumulator to memory and reloading it is
  // exact, and every output element still sees its taps in the im2col
  // (ic, kh, kw) order, so the result is unchanged bitwise.
  //
  // The pre-padded input makes every tap unconditionally loadable: padding
  // taps multiply the explicit +0s the reorder wrote, the very values the
  // fallback's im2col materializes, so the chains match term for term and
  // no x position needs a slower edge path.
  //
  // The 2xCNT (ocb, x) register tile holds up to eight independent fma
  // chains — enough to hide FMA latency on one core — and halves the
  // weight-vector loads per fma. Chain independence is free bitwise:
  // different output elements never share an accumulator.
  const std::int64_t obp = (ob + 1) / 2;  // ocb pairs; last may be a single

  runtime::parallel_for(0, n * obp, 1, [&](std::int64_t u0, std::int64_t u1) {
#ifdef RPOL_LAYOUT_AVX2
    std::vector<float> accbuf(2 * oh * ow * kBlock);
#endif
    for (std::int64_t unit = u0; unit < u1; ++unit) {
      const std::int64_t pair = unit % obp;
      const std::int64_t img = unit / obp;
      const std::int64_t obi0 = 2 * pair;
      const bool has2 = obi0 + 1 < ob;
      const std::int64_t wblk_sz = cb * kernel * kernel * kBlock * kBlock;

      // Stores acc (+ bias once, matching the fallback's post-GEMM add).
      const auto store = [&](std::int64_t obi, std::int64_t y, std::int64_t x,
                             const float* acc) {
        float* dst = py + (((img * ob + obi) * oh + y) * ow + x) * kBlock;
        const std::int64_t o_lanes = std::min(kBlock, o - obi * kBlock);
        if (pbias != nullptr) {
          for (std::int64_t jj = 0; jj < o_lanes; ++jj) {
            dst[jj] = acc[jj] + pbias[obi * kBlock + jj];
          }
          for (std::int64_t jj = o_lanes; jj < kBlock; ++jj) dst[jj] = acc[jj];
        } else {
          for (std::int64_t jj = 0; jj < kBlock; ++jj) dst[jj] = acc[jj];
        }
      };

#ifdef RPOL_LAYOUT_AVX2
      const float* wbase0 = pw + obi0 * wblk_sz;
      const float* wbase1 = wbase0 + wblk_sz;
      std::fill(accbuf.begin(), accbuf.end(), 0.0F);
      float* abuf0 = accbuf.data();
      float* abuf1 = abuf0 + oh * ow * kBlock;

      for (std::int64_t icb = 0; icb < cb; ++icb) {
        const std::int64_t i_lanes = std::min(kBlock, c - icb * kBlock);
        const float* xplane = px + ((img * cb + icb) * hp) * wp * kBlock;
        const float* wblk0 = wbase0 + icb * kernel * kernel * kBlock * kBlock;
        const float* wblk1 = wbase1 + icb * kernel * kernel * kBlock * kBlock;
        for (std::int64_t y = 0; y < oh; ++y) {
          float* arow0 = abuf0 + y * ow * kBlock;
          float* arow1 = abuf1 + y * ow * kBlock;
          const float* xrow0 = xplane + y * stride * wp * kBlock;

          // Prefetch the next icb's weight sub-panels, a few lines per y
          // row: the fma loop otherwise stalls on L2 at every panel switch.
          // (Prefetching never touches results — purely a timing hint.)
          if (icb + 1 < cb) {
            const std::int64_t pbytes =
                kernel * kernel * kBlock * kBlock *
                static_cast<std::int64_t>(sizeof(float));
            const std::int64_t chunk = (pbytes + oh - 1) / oh;
            const char* p0 = reinterpret_cast<const char*>(wblk0) + pbytes;
            const char* p1 = reinterpret_cast<const char*>(wblk1) + pbytes;
            const std::int64_t b1 = std::min((y + 1) * chunk, pbytes);
            for (std::int64_t b = y * chunk; b < b1; b += 64) {
              _mm_prefetch(p0 + b, _MM_HINT_T0);
              _mm_prefetch(p1 + b, _MM_HINT_T0);
            }
          }

          // One register tile: CNT x positions for two ocb blocks. cnt_c is
          // an integral_constant so each width compiles to a fixed-size
          // register tile (a variable bound would spill the accumulators).
          // sb_c is the x step in floats (stride * kBlock) as a compile-time
          // constant for stride 1, or 0 meaning "read the runtime stride" —
          // a runtime step costs a shift+add per broadcast, which for the
          // stride-1 shapes is a third of the loop's issue slots.
          const auto tile2 = [&](std::int64_t x, auto cnt_c, auto sb_c) {
            constexpr std::int64_t CNT = decltype(cnt_c)::value;
            constexpr std::int64_t SB = decltype(sb_c)::value;
            const std::int64_t sb = SB != 0 ? SB : stride * kBlock;
            __m256 a[CNT], b[CNT];
            #pragma GCC unroll 8
            for (std::int64_t l = 0; l < CNT; ++l) {
              a[l] = _mm256_loadu_ps(arow0 + (x + l) * kBlock);
              b[l] = _mm256_loadu_ps(arow1 + (x + l) * kBlock);
            }
            if (kernel == 3) {
              // 3x3 specialization: the nine taps are spelled out with
              // literal (kh, kw) so the compiler folds every offset and the
              // loop body carries no per-tap address arithmetic — the
              // generic version spends as many issue slots on bookkeeping
              // as on fmas. Tap order per element is unchanged: ici
              // ascending, then (kh, kw) ascending.
              const float* xb0 = xrow0 + x * stride * kBlock;
              for (std::int64_t ici = 0; ici < i_lanes; ++ici) {
                const float* wt0 = wblk0 + ici * kBlock;
                const float* wt1 = wblk1 + ici * kBlock;
                const float* xt = xb0 + ici;
                const auto tap = [&](std::int64_t kh, std::int64_t kw) {
                  const std::int64_t toff = (kh * 3 + kw) * kBlock * kBlock;
                  const __m256 w0 = _mm256_loadu_ps(wt0 + toff);
                  const __m256 w1 = _mm256_loadu_ps(wt1 + toff);
                  const float* xb = xt + (kh * wp + kw) * kBlock;
                  #pragma GCC unroll 8
                  for (std::int64_t l = 0; l < CNT; ++l) {
                    const __m256 xv =
                        _mm256_broadcast_ss(xb + l * sb);
                    a[l] = _mm256_fmadd_ps(xv, w0, a[l]);
                    b[l] = _mm256_fmadd_ps(xv, w1, b[l]);
                  }
                };
                tap(0, 0);
                tap(0, 1);
                tap(0, 2);
                tap(1, 0);
                tap(1, 1);
                tap(1, 2);
                tap(2, 0);
                tap(2, 1);
                tap(2, 2);
              }
            } else {
              for (std::int64_t ici = 0; ici < i_lanes; ++ici) {
                for (std::int64_t kh = 0; kh < kernel; ++kh) {
                  const float* xrow = xrow0 + kh * wp * kBlock + ici;
                  for (std::int64_t kw = 0; kw < kernel; ++kw) {
                    const std::int64_t toff =
                        ((kh * kernel + kw) * kBlock + ici) * kBlock;
                    const __m256 w0 = _mm256_loadu_ps(wblk0 + toff);
                    const __m256 w1 = _mm256_loadu_ps(wblk1 + toff);
                    const float* xb = xrow + (x * stride + kw) * kBlock;
                    #pragma GCC unroll 8
                    for (std::int64_t l = 0; l < CNT; ++l) {
                      const __m256 xv =
                          _mm256_broadcast_ss(xb + l * sb);
                      a[l] = _mm256_fmadd_ps(xv, w0, a[l]);
                      b[l] = _mm256_fmadd_ps(xv, w1, b[l]);
                    }
                  }
                }
              }
            }
            #pragma GCC unroll 8
            for (std::int64_t l = 0; l < CNT; ++l) {
              _mm256_storeu_ps(arow0 + (x + l) * kBlock, a[l]);
              _mm256_storeu_ps(arow1 + (x + l) * kBlock, b[l]);
            }
          };
          const auto tile1 = [&](std::int64_t x, auto cnt_c, auto sb_c) {
            constexpr std::int64_t CNT = decltype(cnt_c)::value;
            constexpr std::int64_t SB = decltype(sb_c)::value;
            const std::int64_t sb = SB != 0 ? SB : stride * kBlock;
            __m256 a[CNT];
            #pragma GCC unroll 8
            for (std::int64_t l = 0; l < CNT; ++l) {
              a[l] = _mm256_loadu_ps(arow0 + (x + l) * kBlock);
            }
            if (kernel == 3) {
              const float* xb0 = xrow0 + x * stride * kBlock;
              for (std::int64_t ici = 0; ici < i_lanes; ++ici) {
                const float* wt0 = wblk0 + ici * kBlock;
                const float* xt = xb0 + ici;
                const auto tap = [&](std::int64_t kh, std::int64_t kw) {
                  const __m256 w0 =
                      _mm256_loadu_ps(wt0 + (kh * 3 + kw) * kBlock * kBlock);
                  const float* xb = xt + (kh * wp + kw) * kBlock;
                  #pragma GCC unroll 8
                  for (std::int64_t l = 0; l < CNT; ++l) {
                    a[l] = _mm256_fmadd_ps(
                        _mm256_broadcast_ss(xb + l * sb), w0,
                        a[l]);
                  }
                };
                tap(0, 0);
                tap(0, 1);
                tap(0, 2);
                tap(1, 0);
                tap(1, 1);
                tap(1, 2);
                tap(2, 0);
                tap(2, 1);
                tap(2, 2);
              }
            } else {
              for (std::int64_t ici = 0; ici < i_lanes; ++ici) {
                for (std::int64_t kh = 0; kh < kernel; ++kh) {
                  const float* xrow = xrow0 + kh * wp * kBlock + ici;
                  for (std::int64_t kw = 0; kw < kernel; ++kw) {
                    const __m256 w0 = _mm256_loadu_ps(
                        wblk0 + ((kh * kernel + kw) * kBlock + ici) * kBlock);
                    const float* xb = xrow + (x * stride + kw) * kBlock;
                    #pragma GCC unroll 8
                    for (std::int64_t l = 0; l < CNT; ++l) {
                      a[l] = _mm256_fmadd_ps(
                          _mm256_broadcast_ss(xb + l * sb), w0,
                          a[l]);
                    }
                  }
                }
              }
            }
            #pragma GCC unroll 8
            for (std::int64_t l = 0; l < CNT; ++l) {
              _mm256_storeu_ps(arow0 + (x + l) * kBlock, a[l]);
            }
          };

          // Adaptive chunk plan: a 1-wide tile carries too few fma chains to
          // hide latency, so rows with ow % 4 == 1 trade the trailing 4+1
          // for 3+2 (6 and 4 chains instead of 8 and 2). Chunk boundaries
          // only regroup which elements share a register tile — each
          // element's own chain is untouched, so the split is bitwise-free.
          const auto row_plan = [&](auto sb_c) {
            constexpr std::integral_constant<std::int64_t, XB> c4{};
            constexpr std::integral_constant<std::int64_t, 3> c3{};
            constexpr std::integral_constant<std::int64_t, 2> c2{};
            constexpr std::integral_constant<std::int64_t, 1> c1{};
            std::int64_t n4 = ow / XB, rem = ow % XB;
            if (rem == 1 && n4 > 0) {
              --n4;
              rem = 5;
            }
            std::int64_t x = 0;
            if (has2) {
              for (std::int64_t i = 0; i < n4; ++i, x += XB) {
                tile2(x, c4, sb_c);
              }
              switch (rem) {
                case 5:
                  tile2(x, c3, sb_c);
                  tile2(x + 3, c2, sb_c);
                  break;
                case 3:
                  tile2(x, c3, sb_c);
                  break;
                case 2:
                  tile2(x, c2, sb_c);
                  break;
                case 1:
                  tile2(x, c1, sb_c);
                  break;
                default:
                  break;
              }
            } else {
              for (std::int64_t i = 0; i < n4; ++i, x += XB) {
                tile1(x, c4, sb_c);
              }
              switch (rem) {
                case 5:
                  tile1(x, c3, sb_c);
                  tile1(x + 3, c2, sb_c);
                  break;
                case 3:
                  tile1(x, c3, sb_c);
                  break;
                case 2:
                  tile1(x, c2, sb_c);
                  break;
                case 1:
                  tile1(x, c1, sb_c);
                  break;
                default:
                  break;
              }
            }
          };
          if (stride == 1) {
            row_plan(std::integral_constant<std::int64_t, kBlock>{});
          } else {
            row_plan(std::integral_constant<std::int64_t, 0>{});
          }
        }
      }
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          store(obi0, y, x, abuf0 + (y * ow + x) * kBlock);
          if (has2) store(obi0 + 1, y, x, abuf1 + (y * ow + x) * kBlock);
        }
      }
#else
      // Scalar reference kernels (RPOL_SIMD=OFF builds): each present block
      // runs independently. Loop nesting differs from the AVX2 path but each
      // element's serial tap chain is the same (ic, kh, kw) order, so both
      // builds round identically per-element (they differ only in ISA
      // pinning, see layout.h).
      for (std::int64_t blk = 0; blk < (has2 ? 2 : 1); ++blk) {
        const std::int64_t obi = obi0 + blk;
        const float* wbase = pw + obi * wblk_sz;
        for (std::int64_t y = 0; y < oh; ++y) {
          for (std::int64_t x = 0; x < ow; ++x) {
            float acc[kBlock] = {};
            for (std::int64_t icb = 0; icb < cb; ++icb) {
              const std::int64_t i_lanes = std::min(kBlock, c - icb * kBlock);
              const float* xplane = px + ((img * cb + icb) * hp) * wp * kBlock;
              const float* wblk =
                  wbase + icb * kernel * kernel * kBlock * kBlock;
              for (std::int64_t ici = 0; ici < i_lanes; ++ici) {
                for (std::int64_t kh = 0; kh < kernel; ++kh) {
                  const float* xrow =
                      xplane + (y * stride + kh) * wp * kBlock;
                  for (std::int64_t kw = 0; kw < kernel; ++kw) {
                    const float xv = xrow[(x * stride + kw) * kBlock + ici];
                    const float* wv =
                        wblk + ((kh * kernel + kw) * kBlock + ici) * kBlock;
                    for (std::int64_t jj = 0; jj < kBlock; ++jj) {
                      acc[jj] = madd(xv, wv[jj], acc[jj]);
                    }
                  }
                }
              }
            }
            store(obi, y, x, acc);
          }
        }
      }
#endif
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// Direct backward-weights.
//
// Work item = one (output-channel block, input channel) pair; it owns the
// kernel*kernel dW elements for its 8 output lanes. Each element accumulates
// serially over j = (img, y, x) ascending — matmul_nt's dot order over the
// im2col columns. The pre-padded input means padding taps multiply the same
// explicit +0s the fallback's im2col materializes, so every j contributes
// the identical term and no tap needs a bounds check.

void conv2d_direct_backward_weights(const Tensor& grad_blocked,
                                    const Tensor& input_blocked,
                                    const Conv2dSpec& spec, std::int64_t in_h,
                                    std::int64_t in_w, Tensor& weight_grad) {
  const std::int64_t n = grad_blocked.dim(0);
  const std::int64_t ob = grad_blocked.dim(1);
  const std::int64_t oh = grad_blocked.dim(2), ow = grad_blocked.dim(3);
  const std::int64_t cb = input_blocked.dim(1);
  const std::int64_t c = spec.in_channels, o = spec.out_channels;
  const std::int64_t kernel = spec.kernel, stride = spec.stride,
                     pad = spec.padding;
  const std::int64_t hp = in_h + 2 * pad, wp = in_w + 2 * pad;
  const std::int64_t ckk = c * kernel * kernel;
  if (ob != blocks(o) || cb != blocks(c) || weight_grad.dim(0) != o ||
      weight_grad.dim(1) != ckk || input_blocked.dim(2) != hp ||
      input_blocked.dim(3) != wp) {
    throw std::invalid_argument("conv2d_direct_backward_weights mismatch");
  }
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.conv_direct_bwd_w_ns");
  const float* pg = grad_blocked.data();
  const float* px = input_blocked.data();
  float* pwg = weight_grad.data();
  constexpr std::int64_t kMaxTaps = 16;  // >= kernel*kernel for k in {1,3}
  if (kernel * kernel > kMaxTaps) {
    throw std::invalid_argument("conv2d_direct_backward_weights kernel too large");
  }

  runtime::parallel_for(0, ob * c, 1, [&](std::int64_t u0, std::int64_t u1) {
    for (std::int64_t unit = u0; unit < u1; ++unit) {
      const std::int64_t obi = unit / c;
      const std::int64_t ic = unit % c;
      const std::int64_t icb = ic / kBlock, ici = ic % kBlock;
      const std::int64_t o_lanes = std::min(kBlock, o - obi * kBlock);
      float acc[kMaxTaps][kBlock] = {};
#ifdef RPOL_LAYOUT_AVX2
      if (kernel == 3) {
        // 3x3 specialization: the nine dW taps are DIFFERENT output
        // elements, so their chains may interleave freely — nine register
        // chains hide the fma latency a per-tap walk cannot, and the dY
        // vector is loaded once per x for all nine taps. Each tap still
        // sees its own j's in ascending (img, y, x) order.
        __m256 av[9];
        for (int t = 0; t < 9; ++t) av[t] = _mm256_setzero_ps();
        // sb is the per-x step in floats; the stride-1 instantiation folds
        // it to a constant so the walk carries no per-x multiplies, and
        // lets the compiler share broadcasts between adjacent x (their tap
        // windows overlap by two columns).
        const auto walk = [&](auto sb_c) {
          constexpr std::int64_t SB = decltype(sb_c)::value;
          const std::int64_t sb = SB != 0 ? SB : stride * kBlock;
          for (std::int64_t img = 0; img < n; ++img) {
            const float* gplane = pg + ((img * ob + obi) * oh) * ow * kBlock;
            const float* xplane =
                px + ((img * cb + icb) * hp) * wp * kBlock + ici;
            for (std::int64_t y = 0; y < oh; ++y) {
              const float* gy_row = gplane + y * ow * kBlock;
              const float* xr0 = xplane + y * stride * wp * kBlock;
              const float* xr1 = xr0 + wp * kBlock;
              const float* xr2 = xr1 + wp * kBlock;
#pragma GCC unroll 2
              for (std::int64_t x = 0; x < ow; ++x) {
                const __m256 dyv = _mm256_loadu_ps(gy_row + x * kBlock);
                const std::int64_t xo = x * sb;
                av[0] = _mm256_fmadd_ps(dyv, _mm256_broadcast_ss(xr0 + xo),
                                        av[0]);
                av[1] = _mm256_fmadd_ps(
                    dyv, _mm256_broadcast_ss(xr0 + xo + kBlock), av[1]);
                av[2] = _mm256_fmadd_ps(
                    dyv, _mm256_broadcast_ss(xr0 + xo + 2 * kBlock), av[2]);
                av[3] = _mm256_fmadd_ps(dyv, _mm256_broadcast_ss(xr1 + xo),
                                        av[3]);
                av[4] = _mm256_fmadd_ps(
                    dyv, _mm256_broadcast_ss(xr1 + xo + kBlock), av[4]);
                av[5] = _mm256_fmadd_ps(
                    dyv, _mm256_broadcast_ss(xr1 + xo + 2 * kBlock), av[5]);
                av[6] = _mm256_fmadd_ps(dyv, _mm256_broadcast_ss(xr2 + xo),
                                        av[6]);
                av[7] = _mm256_fmadd_ps(
                    dyv, _mm256_broadcast_ss(xr2 + xo + kBlock), av[7]);
                av[8] = _mm256_fmadd_ps(
                    dyv, _mm256_broadcast_ss(xr2 + xo + 2 * kBlock), av[8]);
              }
            }
          }
        };
        if (stride == 1) {
          walk(std::integral_constant<std::int64_t, kBlock>{});
        } else {
          walk(std::integral_constant<std::int64_t, 0>{});
        }
        for (int t = 0; t < 9; ++t) _mm256_storeu_ps(acc[t], av[t]);
      } else {
        for (std::int64_t img = 0; img < n; ++img) {
          const float* gplane = pg + ((img * ob + obi) * oh) * ow * kBlock;
          const float* xplane = px + ((img * cb + icb) * hp) * wp * kBlock + ici;
          for (std::int64_t y = 0; y < oh; ++y) {
            const float* gy_row = gplane + y * ow * kBlock;
            for (std::int64_t kh = 0; kh < kernel; ++kh) {
              const float* xrow = xplane + (y * stride + kh) * wp * kBlock;
              for (std::int64_t kw = 0; kw < kernel; ++kw) {
                float* at = acc[kh * kernel + kw];
                __m256 av = _mm256_loadu_ps(at);
                for (std::int64_t x = 0; x < ow; ++x) {
                  av = _mm256_fmadd_ps(
                      _mm256_loadu_ps(gy_row + x * kBlock),
                      _mm256_broadcast_ss(xrow + (x * stride + kw) * kBlock),
                      av);
                }
                _mm256_storeu_ps(at, av);
              }
            }
          }
        }
      }
#else
      for (std::int64_t img = 0; img < n; ++img) {
        const float* gplane = pg + ((img * ob + obi) * oh) * ow * kBlock;
        const float* xplane = px + ((img * cb + icb) * hp) * wp * kBlock + ici;
        for (std::int64_t y = 0; y < oh; ++y) {
          const float* gy_row = gplane + y * ow * kBlock;
          for (std::int64_t kh = 0; kh < kernel; ++kh) {
            const float* xrow = xplane + (y * stride + kh) * wp * kBlock;
            for (std::int64_t kw = 0; kw < kernel; ++kw) {
              float* at = acc[kh * kernel + kw];
              for (std::int64_t x = 0; x < ow; ++x) {
                const float xv = xrow[(x * stride + kw) * kBlock];
                const float* dyv = gy_row + x * kBlock;
                for (std::int64_t jj = 0; jj < kBlock; ++jj) {
                  at[jj] = madd(dyv[jj], xv, at[jj]);
                }
              }
            }
          }
        }
      }
#endif
      // Mirrors the fallback's `weight_.grad += matmul_nt(...)`: the dW
      // value is fully accumulated first, then added to the grad once.
      for (std::int64_t oo = 0; oo < o_lanes; ++oo) {
        float* wg_row = pwg + (obi * kBlock + oo) * ckk;
        for (std::int64_t kh = 0; kh < kernel; ++kh) {
          for (std::int64_t kw = 0; kw < kernel; ++kw) {
            wg_row[(ic * kernel + kh) * kernel + kw] +=
                acc[kh * kernel + kw][oo];
          }
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Direct backward-data.
//
// Work item = one (img, ic) input-gradient plane, fusing matmul_tn with
// col2im: each column value dcols(kk, j) is a serial dot over oc in
// ascending order (matmul_tn's k-order), fully computed before being
// scatter-added in col2im's fixed (kh, kw, y, x) order.

Tensor conv2d_direct_backward_data(const Tensor& grad_nchw,
                                   const Tensor& weight_t,
                                   const Conv2dSpec& spec,
                                   const Shape& input_shape) {
  const std::int64_t n = input_shape[0], c = input_shape[1];
  const std::int64_t h = input_shape[2], w = input_shape[3];
  const std::int64_t o = spec.out_channels;
  const std::int64_t oh = grad_nchw.dim(2), ow = grad_nchw.dim(3);
  const std::int64_t kernel = spec.kernel, stride = spec.stride,
                     pad = spec.padding;
  if (grad_nchw.dim(1) != o || weight_t.dim(0) != c * kernel * kernel ||
      weight_t.dim(1) != o) {
    throw std::invalid_argument("conv2d_direct_backward_data mismatch");
  }
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.conv_direct_bwd_d_ns");
  Tensor out(input_shape);
  const float* pg = grad_nchw.data();
  const float* pwt = weight_t.data();
  float* pd = out.data();
  constexpr std::int64_t XB = 8;  // x positions (= independent chains) per step

  constexpr std::int64_t ICB = 4;  // input channels per work unit
  const std::int64_t ngroups = (c + ICB - 1) / ICB;

  runtime::parallel_for(
      0, n * ngroups, 1, [&](std::int64_t s0, std::int64_t s1) {
        for (std::int64_t slice = s0; slice < s1; ++slice) {
          const std::int64_t img = slice / ngroups;
          const std::int64_t ic0 = (slice % ngroups) * ICB;
          const std::int64_t icn = std::min(ICB, c - ic0);
          // dY rows are contiguous over x in NCHW, so each oc step is one
          // broadcast + contiguous vector loads; x lanes are distinct output
          // elements, each keeping the serial ascending-oc dot order. A unit
          // covers ICB input channels so each loaded dY vector feeds ICB
          // dots — with one channel per unit the whole dY block is
          // re-streamed per channel and the kernel is memory-bound.
          const float* gimg = pg + img * o * oh * ow;
          const std::int64_t ohow = oh * ow;
          const std::int64_t kko = kernel * kernel * o;
          for (std::int64_t kh = 0; kh < kernel; ++kh) {
            for (std::int64_t kw = 0; kw < kernel; ++kw) {
              const XRange xr = valid_x_range(ow, w, kw, stride, pad);
              // Same computation gives the valid y range for kh.
              const XRange yr = valid_x_range(oh, h, kh, stride, pad);
              const float* wt0 = pwt + ((ic0 * kernel + kh) * kernel + kw) * o;
#ifdef RPOL_LAYOUT_AVX2
              // YL consecutive y rows x ICN channels run as independent fma
              // chains: a single row is one serial chain (latency-bound on
              // the narrow deep shapes), while rows and channels never share
              // a dst element within a tap, so interleaving is bitwise-free.
              // Row tails shorter than 8 use maskload (masked lanes read 0
              // and are never stored) instead of dropping to scalar.
              const auto rows = [&](std::int64_t y0, auto yl_c, auto icn_c) {
                constexpr std::int64_t YL = decltype(yl_c)::value;
                constexpr std::int64_t ICN = decltype(icn_c)::value;
                for (std::int64_t x0 = xr.lo; x0 < xr.hi; x0 += XB) {
                  const std::int64_t len = std::min(XB, xr.hi - x0);
                  const __m256i mask = _mm256_cmpgt_epi32(
                      _mm256_set1_epi32(static_cast<int>(len)),
                      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
                  __m256 acc[ICN * YL];
#pragma GCC unroll 8
                  for (std::int64_t t = 0; t < ICN * YL; ++t) {
                    acc[t] = _mm256_setzero_ps();
                  }
                  const float* g = gimg + y0 * ow + x0;
                  if (len == XB) {
                    for (std::int64_t oc = 0; oc < o; ++oc, g += ohow) {
                      __m256 gv[YL];
#pragma GCC unroll 4
                      for (std::int64_t l = 0; l < YL; ++l) {
                        gv[l] = _mm256_loadu_ps(g + l * ow);
                      }
#pragma GCC unroll 4
                      for (std::int64_t i = 0; i < ICN; ++i) {
                        const __m256 wv =
                            _mm256_broadcast_ss(wt0 + i * kko + oc);
#pragma GCC unroll 4
                        for (std::int64_t l = 0; l < YL; ++l) {
                          acc[i * YL + l] =
                              _mm256_fmadd_ps(wv, gv[l], acc[i * YL + l]);
                        }
                      }
                    }
                  } else {
                    for (std::int64_t oc = 0; oc < o; ++oc, g += ohow) {
                      __m256 gv[YL];
#pragma GCC unroll 4
                      for (std::int64_t l = 0; l < YL; ++l) {
                        gv[l] = _mm256_maskload_ps(g + l * ow, mask);
                      }
#pragma GCC unroll 4
                      for (std::int64_t i = 0; i < ICN; ++i) {
                        const __m256 wv =
                            _mm256_broadcast_ss(wt0 + i * kko + oc);
#pragma GCC unroll 4
                        for (std::int64_t l = 0; l < YL; ++l) {
                          acc[i * YL + l] =
                              _mm256_fmadd_ps(wv, gv[l], acc[i * YL + l]);
                        }
                      }
                    }
                  }
#pragma GCC unroll 4
                  for (std::int64_t i = 0; i < ICN; ++i) {
                    float* dplane = pd + (img * c + ic0 + i) * h * w;
#pragma GCC unroll 4
                    for (std::int64_t l = 0; l < YL; ++l) {
                      const std::int64_t in_y = (y0 + l) * stride + kh - pad;
                      float* dst_row = dplane + in_y * w + kw - pad;
                      if (stride == 1) {
                        float* d = dst_row + x0;
                        if (len == XB) {
                          _mm256_storeu_ps(
                              d, _mm256_add_ps(_mm256_loadu_ps(d),
                                               acc[i * YL + l]));
                        } else {
                          _mm256_maskstore_ps(
                              d, mask,
                              _mm256_add_ps(_mm256_maskload_ps(d, mask),
                                            acc[i * YL + l]));
                        }
                      } else {
                        float tmp[XB];
                        _mm256_storeu_ps(tmp, acc[i * YL + l]);
                        for (std::int64_t j = 0; j < len; ++j) {
                          dst_row[(x0 + j) * stride] += tmp[j];
                        }
                      }
                    }
                  }
                }
              };
              const auto sweep = [&](auto icn_c) {
                for (std::int64_t y0 = yr.lo; y0 < yr.hi;) {
                  if (yr.hi - y0 >= 2) {
                    rows(y0, std::integral_constant<std::int64_t, 2>{}, icn_c);
                    y0 += 2;
                  } else {
                    rows(y0, std::integral_constant<std::int64_t, 1>{}, icn_c);
                    y0 += 1;
                  }
                }
              };
              switch (icn) {
                case 4:
                  sweep(std::integral_constant<std::int64_t, 4>{});
                  break;
                case 3:
                  sweep(std::integral_constant<std::int64_t, 3>{});
                  break;
                case 2:
                  sweep(std::integral_constant<std::int64_t, 2>{});
                  break;
                default:
                  sweep(std::integral_constant<std::int64_t, 1>{});
                  break;
              }
#else
              for (std::int64_t i = 0; i < icn; ++i) {
                float* dplane = pd + (img * c + ic0 + i) * h * w;
                const float* wtrow = wt0 + i * kko;
                for (std::int64_t y = yr.lo; y < yr.hi; ++y) {
                  const std::int64_t in_y = y * stride + kh - pad;
                  float* dst_row = dplane + in_y * w + kw - pad;
                  const float* gy0 = gimg + y * ow;  // oc stride is oh*ow
                  for (std::int64_t x0 = xr.lo; x0 < xr.hi; x0 += XB) {
                    const std::int64_t len = std::min(XB, xr.hi - x0);
                    float acc[XB] = {};
                    const float* g = gy0 + x0;
                    for (std::int64_t oc = 0; oc < o; ++oc, g += ohow) {
                      const float wv = wtrow[oc];
                      for (std::int64_t l = 0; l < len; ++l) {
                        acc[l] = madd(wv, g[l], acc[l]);
                      }
                    }
                    for (std::int64_t l = 0; l < len; ++l) {
                      dst_row[(x0 + l) * stride] += acc[l];
                    }
                  }
                }
              }
#endif
            }
          }
        }
      });
  return out;
}

}  // namespace rpol::layout
