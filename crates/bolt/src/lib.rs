//! A BOLT-style monolithic post-link binary optimizer — the paper's
//! comparator (§5, "Lightning BOLT" configuration).
//!
//! Where Propeller relinks from cached objects, this tool takes the
//! *final linked binary* and:
//!
//! 1. discovers functions from the symbol table ([`disasm`]),
//! 2. linearly **disassembles** every function (the memory- and
//!    time-dominant step the paper's Figures 4, 5 and 9 measure),
//! 3. reconstructs control flow graphs from the decoded branches
//!    ([`mod@cfg`]),
//! 4. converts the hardware profile onto the reconstructed CFGs
//!    (the `perf2bolt` step),
//! 5. reorders blocks with Ext-TSP, splits hot/cold, and reorders
//!    functions with an hfsort-style clustering ([`hfsort`]),
//! 6. **rewrites** the binary: optimized code goes into a new text
//!    segment aligned to a 2 MiB boundary while the original `.text`
//!    is retained — the §5.3 size behavior.
//!
//! The §5.8 failure modes are modeled: rewriting requires static
//! relocations in the input, and binaries containing restartable
//! sequences or FIPS integrity checks produce output that crashes at
//! startup.

pub mod cfg;
pub mod disasm;
pub mod hfsort;
mod rewrite;

mod driver;
mod error;

pub use driver::{run_bolt, BoltOptions, BoltOutput, BoltStats};
pub use error::BoltError;
