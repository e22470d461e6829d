// Dense matrix product for composing thermal hold operators.
//
// StepPropagator::Hold builds k-step operators by binary powering,
// one GEMM per composition. The product runs on the same fold as the
// panel stepping kernels (util/panel.hpp, defined in
// panel_kernels.cpp): every output element is one ascending fold over
// the inner dimension, c(i, j) = fold_l a(i, l) * b(l, j), fused on
// AVX2/FMA builds -- so its bits depend only on the operands, never
// on tiling. Nothing here allocates.
#pragma once

#include "util/matrix.hpp"

namespace ds::util {

/// c = A B (c is overwritten). Requires a.cols() == b.rows() and c
/// non-null and pre-sized to a.rows() x b.cols(); c must not alias a
/// or b. The shape and null-output preconditions are DS_REQUIRE
/// contracts. Allocation-free.
void Gemm(const Matrix& a, const Matrix& b, Matrix* c);

/// c += A B. Same requirements and contracts as Gemm (checked before
/// any element of c is touched); each element's fold is seeded with
/// its prior value. Allocation-free.
void GemmAdd(const Matrix& a, const Matrix& b, Matrix* c);

}  // namespace ds::util
