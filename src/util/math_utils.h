#ifndef GVA_UTIL_MATH_UTILS_H_
#define GVA_UTIL_MATH_UTILS_H_

namespace gva {

/// Inverse of the standard normal cumulative distribution function
/// (the probit function), computed with Acklam's rational approximation
/// refined by one step of Halley's method. Absolute error is below 1e-9 on
/// (0, 1). `p` must lie strictly inside (0, 1).
double InverseNormalCdf(double p);

/// Standard normal cumulative distribution function.
double NormalCdf(double x);

}  // namespace gva

#endif  // GVA_UTIL_MATH_UTILS_H_
