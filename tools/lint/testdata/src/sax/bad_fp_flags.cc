// Fixture: value-changing floating-point options in optimize pragmas and
// attributes. Expected fp-value-flags findings: 3. Other optimize options,
// prose such as "#pragma GCC optimize("fast-math")" in a comment, and the
// suppressed line must not fire.
#pragma GCC optimize("fast-math")  // finding

namespace gva {

__attribute__((optimize("Ofast"))) double Fast(double x) {  // finding
  return x * 2.0;
}

[[gnu::optimize("-ffp-contract=fast")]]  // finding
double Fused(double a, double b, double c) {
  return a * b + c;
}

__attribute__((optimize("O3"))) double Plain(double x) { return x + 1.0; }

__attribute__((optimize("unroll-loops"))) double Unrolled(double x) {
  return x - 1.0;
}

// ProseIsFine: __attribute__((optimize("fast-math"))) is banned.
__attribute__((optimize("Ofast"))) double Waived(double x) {  // gva-lint: allow(fp-value-flags)
  return x;
}

}  // namespace gva
