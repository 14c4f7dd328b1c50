//! Pipeline errors.
//!
//! Every variant wraps its typed source error (no stringification), so
//! degradation logic can match on causes — e.g. distinguishing a
//! [`BuildError::ActionOverMemoryLimit`] plan error (not retryable)
//! from an [`ImageError::MissingFunction`] layout inconsistency.

use propeller_buildsys::BuildError;
use propeller_codegen::CodegenError;
use propeller_linker::LinkError;
use propeller_sim::ImageError;
use std::error::Error;
use std::fmt;

/// Any failure of the four-phase pipeline.
#[derive(Clone, PartialEq, Debug)]
pub enum PipelineError {
    /// A codegen action failed.
    Codegen(CodegenError),
    /// A link action failed.
    Link(LinkError),
    /// The build system rejected an action (memory limit).
    Build(BuildError),
    /// A phase was invoked before its prerequisite phase.
    PhaseOrder {
        /// The missing prerequisite.
        needs: &'static str,
    },
    /// The simulator could not build an image from the linked binary.
    /// The nested [`ImageError`] names the exact inconsistency
    /// (missing function/block, malformed branch bytes).
    Image(ImageError),
    /// An internal invariant the pipeline relies on did not hold.
    /// Reaching this is a bug in the pipeline, not in its inputs; it
    /// is a typed error instead of a panic so chaos runs degrade
    /// rather than abort.
    Internal {
        /// The violated invariant.
        what: &'static str,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Codegen(e) => write!(f, "codegen action failed: {e}"),
            PipelineError::Link(e) => write!(f, "link action failed: {e}"),
            PipelineError::Build(e) => write!(f, "build system rejected action: {e}"),
            PipelineError::PhaseOrder { needs } => {
                write!(f, "phase invoked before {needs} completed")
            }
            PipelineError::Image(e) => write!(f, "simulator image construction failed: {e}"),
            PipelineError::Internal { what } => {
                write!(f, "pipeline invariant violated: {what}")
            }
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Codegen(e) => Some(e),
            PipelineError::Link(e) => Some(e),
            PipelineError::Build(e) => Some(e),
            PipelineError::Image(e) => Some(e),
            PipelineError::PhaseOrder { .. } | PipelineError::Internal { .. } => None,
        }
    }
}

impl From<CodegenError> for PipelineError {
    fn from(e: CodegenError) -> Self {
        PipelineError::Codegen(e)
    }
}

impl From<LinkError> for PipelineError {
    fn from(e: LinkError) -> Self {
        PipelineError::Link(e)
    }
}

impl From<BuildError> for PipelineError {
    fn from(e: BuildError) -> Self {
        PipelineError::Build(e)
    }
}

impl From<ImageError> for PipelineError {
    fn from(e: ImageError) -> Self {
        PipelineError::Image(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = PipelineError::PhaseOrder { needs: "phase 3" };
        assert!(e.to_string().contains("phase 3"));
        assert!(e.source().is_none());
        let e = PipelineError::Link(LinkError::DuplicateSymbol("x".into()));
        assert!(e.source().is_some());
    }

    #[test]
    fn image_variant_preserves_the_typed_cause() {
        let e = PipelineError::from(ImageError::MissingFunction("hot_fn".into()));
        // Degradation logic can match on the nested cause…
        assert!(matches!(
            e,
            PipelineError::Image(ImageError::MissingFunction(ref name)) if &**name == "hot_fn"
        ));
        // …and the source chain is intact for error reporters.
        assert!(e.source().unwrap().to_string().contains("hot_fn"));
    }

    #[test]
    fn internal_variant_names_the_invariant() {
        let e = PipelineError::Internal {
            what: "profiler returned no profile",
        };
        assert!(e.to_string().contains("no profile"));
    }
}
