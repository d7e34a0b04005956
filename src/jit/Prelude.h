// llhd Blaze JIT prelude (src/jit/Prelude.h): opens every generated unit;
// sim/RtOps.cpp's fast path runs the same helpers. Freestanding: no includes.
typedef unsigned long long u64;
typedef long long s64;
typedef struct LlhdJitApi {
  u64 (*prb)(void *ctx, unsigned site);
  void (*prb_arr)(void *ctx, unsigned site, u64 *dst, unsigned n);
  void (*drv)(void *ctx, unsigned site, u64 val);
  void (*drv_arr)(void *ctx, unsigned site, const u64 *val, unsigned n);
  void (*call)(void *ctx, unsigned site, const u64 *args, unsigned n);
} LlhdJitApi;
enum { AbiVersion = 1 };
// The engine (LLHD_JIT_ENGINE) checks this stamp and carries none itself.
#ifndef LLHD_JIT_ENGINE
extern "C" { int llhd_jit_abi_version = AbiVersion; }
#endif

// Operands are masked to width w. Shift amounts clamp at w. Division by
// zero gives all-ones, remainder by zero the dividend; signed division
// works on magnitudes, so MIN / -1 wraps instead of trapping.
static inline u64 jm(u64 v, unsigned w) {
  return w >= 64 ? v : (w == 0 ? 0 : (v & ((((u64)1) << w) - 1)));
}
static inline s64 jsx(u64 v, unsigned w) {
  if (w == 0 || w >= 64)
    return (s64)v;
  u64 m = ((u64)1) << (w - 1);
  return (s64)((v ^ m) - m);
}
static inline u64 jshl(u64 a, u64 amt, unsigned w) {
  unsigned s = amt > (u64)w ? w : (unsigned)amt;
  return s >= w ? 0 : jm(a << s, w);
}
static inline u64 jshr(u64 a, u64 amt, unsigned w) {
  unsigned s = amt > (u64)w ? w : (unsigned)amt;
  return s >= w ? 0 : a >> s;
}
static inline u64 jashr(u64 a, u64 amt, unsigned w) {
  unsigned s = amt > (u64)w ? w : (unsigned)amt;
  int neg = w != 0 && ((a >> (w - 1)) & 1);
  if (s >= w)
    return neg ? jm(~(u64)0, w) : 0;
  u64 v = a >> s;
  if (neg && s != 0)
    v |= jm(~(u64)0, w) << (w - s);
  return jm(v, w);
}
static inline u64 judiv(u64 a, u64 b, unsigned w) {
  return b == 0 ? jm(~(u64)0, w) : a / b;
}
static inline u64 jurem(u64 a, u64 b) { return b == 0 ? a : a % b; }
static inline u64 jsdiv(u64 a, u64 b, unsigned w) {
  if (b == 0)
    return jm(~(u64)0, w);
  int an = w != 0 && ((a >> (w - 1)) & 1), bn = w != 0 && ((b >> (w - 1)) & 1);
  u64 ma = an ? jm(0 - a, w) : a, mb = bn ? jm(0 - b, w) : b;
  u64 q = ma / mb;
  return jm(an != bn ? 0 - q : q, w);
}
static inline u64 jsrem(u64 a, u64 b, unsigned w) {
  if (b == 0)
    return a;
  int an = w != 0 && ((a >> (w - 1)) & 1), bn = w != 0 && ((b >> (w - 1)) & 1);
  u64 ma = an ? jm(0 - a, w) : a, mb = bn ? jm(0 - b, w) : b;
  u64 r = ma % mb;
  (void)bn;
  return an ? jm(0 - r, w) : r;
}
static inline u64 jsmod(u64 a, u64 b, unsigned w) {
  if (b == 0)
    return a;
  int an = w != 0 && ((a >> (w - 1)) & 1), bn = w != 0 && ((b >> (w - 1)) & 1);
  u64 ma = an ? jm(0 - a, w) : a, mb = bn ? jm(0 - b, w) : b;
  u64 r = ma % mb;
  if (an)
    r = jm(0 - r, w);
  if (r != 0 && an != bn)
    r = jm(r + b, w);
  return r;
}
