// Dense matrix product.
//
// StepPropagator folds its ambient row c_amb^T = (g_amb T_amb)^T A^-T
// with one GEMM. The product runs on the same fold as the panel
// stepping kernels (util/panel.hpp, defined in
// panel_kernels.cpp): every output element is one ascending fold over
// the inner dimension, c(i, j) = fold_l a(i, l) * b(l, j), one fused
// multiply-add per l on every build and CPU -- so its bits depend
// only on the operands, never on tiling. Nothing here allocates.
#pragma once

#include "util/matrix.hpp"

namespace ds::util {

/// c = A B (c is overwritten). Requires a.cols() == b.rows() and c
/// non-null and pre-sized to a.rows() x b.cols(); c must not alias a
/// or b. The shape and null-output preconditions are DS_REQUIRE
/// contracts. Allocation-free.
void Gemm(const Matrix& a, const Matrix& b, Matrix* c);

}  // namespace ds::util
