// Fixture: a raw wall-clock read inside a formerly file-exempt time
// module (deadline.rs / timing.rs). Since the clock moved into
// oris-obs, these files are in scope like everyone else: measurement
// goes through `oris_obs::Stopwatch`, not `Instant::now`.

pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = std::time::Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}
