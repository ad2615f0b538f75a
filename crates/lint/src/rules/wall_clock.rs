//! `wall-clock`: no `Instant`/`SystemTime` outside `crates/bench`.
//!
//! Simulated time is the only clock the simulation crates may read;
//! a wall-clock read anywhere in the model would couple results to host
//! speed and scheduling. Timing the *harness* is legitimate, so `bench`
//! (whose runner reports wall seconds) is exempt.

use super::Rule;
use crate::diag::Finding;
use crate::source::SourceFile;

pub struct WallClock;

const BANNED: [&str; 2] = ["Instant", "SystemTime"];

impl Rule for WallClock {
    fn id(&self) -> &'static str {
        "wall-clock"
    }

    fn description(&self) -> &'static str {
        "Instant/SystemTime are banned outside crates/bench"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.crate_name() == "bench" {
            return;
        }
        for tok in file.code_tokens() {
            if BANNED.iter().any(|b| tok.is_ident(b)) {
                out.push(Finding {
                    rule: self.id(),
                    file: file.rel_path.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "`{}` outside crates/bench: simulation code must read simulated time only",
                        tok.text
                    ),
                    rationale: "wall-clock reads make results depend on host speed; use SimTime, \
                                or move harness timing into crates/bench",
                });
            }
        }
    }
}
