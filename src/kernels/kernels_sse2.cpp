// SSE2 kernel table: baseline x86-64 (no extra compile flags needed), built
// entirely from the shared 128-bit implementations.
#include "kernels/kernels_internal.h"

#if defined(__SSE2__)

#include "kernels/kernels_m128_impl.h"

namespace pdw::kernels {
namespace {

const KernelTable kTable = {
    .level = Level::kSse2,
    .name = "sse2",
    .idct_8x8 = m128::idct_8x8,
    .interp_halfpel = m128::interp_halfpel,
    .avg_pixels = m128::avg_pixels,
    .add_residual_8x8 = m128::add_residual_8x8,
    .put_residual_8x8 = m128::put_residual_8x8,
    .sad16x16 = m128::sad16x16,
    .sad16x16_halfpel = m128::sad16x16_halfpel,
};

}  // namespace

const KernelTable* sse2_table() { return &kTable; }

}  // namespace pdw::kernels

#else  // !__SSE2__

namespace pdw::kernels {
const KernelTable* sse2_table() { return nullptr; }
}  // namespace pdw::kernels

#endif
