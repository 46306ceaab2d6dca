// Fixture: the same read, justified. The only legitimate reason left
// after the clock centralised in oris-obs is bootstrapping a clock that
// oris-obs itself cannot provide (e.g. a platform-specific fallback).

pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    // oris-lint: allow(det-time) — platform clock shim; cannot depend on oris-obs from here
    let t0 = std::time::Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}
