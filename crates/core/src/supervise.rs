//! Panic isolation for supervised campaign cells.
//!
//! A campaign cell that panics (a workload generator bug, an overflow in a
//! model, an assertion inside the simulator) must cost *one cell*, not the
//! whole campaign. [`run_isolated`] runs a closure under
//! [`std::panic::catch_unwind`] and converts the panic payload into a
//! plain-text error the campaign records in its outcome table.
//!
//! The default panic hook prints a backtrace to stderr before unwinding,
//! which would spray expected-failure noise over campaign output and test
//! runs. A process-wide wrapper hook (installed once) consults a
//! thread-local flag: while a supervised cell runs on this thread the
//! message is suppressed; every other panic still reaches the previously
//! installed hook unchanged, so unrelated threads and genuine crashes keep
//! their diagnostics.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    /// True while this thread runs inside [`run_isolated`].
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_wrapper_hook() {
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Extracts the human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs `f`, converting a panic into `Err(message)` instead of unwinding
/// the caller. Panic-hook output is suppressed for the duration (on this
/// thread only), so expected cell failures don't spray stderr. Calls nest:
/// a campaign cell isolated inside an isolated `repro` experiment restores
/// the experiment's suppression when it returns.
pub fn run_isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_wrapper_hook();
    let outer = SUPPRESS_PANIC_OUTPUT.with(|s| s.replace(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(outer));
    result.map_err(|payload| panic_message(payload.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_results_pass_through() {
        assert_eq!(run_isolated(|| 41 + 1), Ok(42));
    }

    #[test]
    fn str_panics_become_messages() {
        let err = run_isolated(|| -> u32 { panic!("boom at cell 3") }).unwrap_err();
        assert_eq!(err, "boom at cell 3");
    }

    #[test]
    fn formatted_panics_become_messages() {
        let n = 7;
        let err = run_isolated(|| -> u32 { panic!("bad level {n}") }).unwrap_err();
        assert_eq!(err, "bad level 7");
    }

    #[test]
    fn panics_outside_run_isolated_still_unwind_normally() {
        // After a suppressed panic, the flag must be cleared again.
        let _ = run_isolated(|| -> u32 { panic!("suppressed") });
        assert!(!SUPPRESS_PANIC_OUTPUT.with(Cell::get));
    }

    #[test]
    fn nested_calls_keep_the_outer_suppression() {
        let err = run_isolated(|| -> u32 {
            let _ = run_isolated(|| "inner cell");
            assert!(SUPPRESS_PANIC_OUTPUT.with(Cell::get));
            panic!("outer")
        })
        .unwrap_err();
        assert_eq!(err, "outer");
        assert!(!SUPPRESS_PANIC_OUTPUT.with(Cell::get));
    }

    #[test]
    fn nested_state_is_reset_even_when_closure_returns_ok() {
        assert_eq!(run_isolated(|| "fine"), Ok("fine"));
        assert!(!SUPPRESS_PANIC_OUTPUT.with(Cell::get));
    }
}
