//! The model registry: named recognisers served side by side from one
//! [`AsrServer`](crate::AsrServer).
//!
//! One server, one model is not a deployment shape — dictation, command
//! grammars and per-domain language models are normally *co-resident*.  A
//! [`ModelRegistry`] names each decode task once at spawn time; requests
//! route by name ([`DecodeRequest::model`](crate::DecodeRequest::model)),
//! unnamed requests go to the registry's **default model**, and a name can
//! be [hot-swapped](crate::AsrServer::swap_model) to a new recogniser
//! version while the server keeps taking traffic.

use crate::ServeError;
use asr_core::Recognizer;
use std::sync::Arc;

/// Registration-ordered `(name, recogniser)` pairs.
pub(crate) type Models = Vec<(String, Arc<Recognizer>)>;

/// The model name used by [`AsrServer::spawn`](crate::AsrServer::spawn) and
/// by an unset [`ModelRegistry::default_model`] with a single registration —
/// single-model callers never spell a name.
pub const DEFAULT_MODEL: &str = "default";

/// One pinned version of a named model: what a request is admitted *under*.
///
/// Hot-swap replaces the `Arc<ModelVersion>` a name resolves to; everything
/// already holding a clone (queued requests, open stream sessions, a
/// worker's cached decoder key) keeps decoding this exact version.
#[derive(Debug)]
pub(crate) struct ModelVersion {
    /// The registered name (shared with the registry map key and stats).
    pub(crate) name: Arc<str>,
    /// Monotone per-name version counter: 1 at spawn, +1 per swap.
    pub(crate) version: u64,
    /// The recogniser this version decodes with.
    pub(crate) recognizer: Arc<Recognizer>,
}

/// A builder naming the models one [`AsrServer`](crate::AsrServer) serves.
///
/// Register each recogniser under a unique name, optionally pick the
/// default route, and hand the registry to
/// [`AsrServer::spawn`](crate::AsrServer::spawn).  When no default is
/// named, the first registered model is the default.
///
/// ```
/// # use asr_serve::ModelRegistry;
/// # use asr_core::{DecoderConfig, Recognizer};
/// # use asr_corpus::{TaskConfig, TaskGenerator};
/// # fn rec(seed: u64) -> Recognizer {
/// #     let task = TaskGenerator::new(seed).generate(&TaskConfig::tiny()).unwrap();
/// #     Recognizer::new(task.acoustic_model.clone(), task.dictionary.clone(),
/// #         task.language_model.clone(), DecoderConfig::simd()).unwrap()
/// # }
/// let registry = ModelRegistry::new()
///     .register("dictation", rec(9))
///     .unwrap()
///     .register("voice_command", rec(11))
///     .unwrap()
///     .default_model("dictation");
/// assert_eq!(registry.names(), ["dictation", "voice_command"]);
/// ```
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: Models,
    default_model: Option<String>,
}

impl ModelRegistry {
    /// An empty registry.  At least one model must be registered before
    /// spawning a server from it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `recognizer` under `name`.  Pass an `Arc` for a model also
    /// decoded directly (the serve==direct property tests do this).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an empty name or a name
    /// registered twice.
    pub fn register(
        mut self,
        name: impl Into<String>,
        recognizer: impl Into<Arc<Recognizer>>,
    ) -> Result<Self, ServeError> {
        let name = name.into();
        if name.is_empty() {
            return Err(ServeError::InvalidConfig(
                "model name must be non-empty".into(),
            ));
        }
        if self.models.iter().any(|(n, _)| *n == name) {
            return Err(ServeError::InvalidConfig(format!(
                "model '{name}' registered twice"
            )));
        }
        self.models.push((name, recognizer.into()));
        Ok(self)
    }

    /// Names the model unnamed requests route to.  Defaults to the first
    /// registered model.
    #[must_use]
    pub fn default_model(mut self, name: impl Into<String>) -> Self {
        self.default_model = Some(name.into());
        self
    }

    /// The registered model names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.models.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether no model has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Validates and decomposes the registry:
    /// `(registration-ordered models, default name)`.
    pub(crate) fn into_parts(self) -> Result<(Models, String), ServeError> {
        let Some(first) = self.models.first() else {
            return Err(ServeError::InvalidConfig(
                "registry must contain at least one model".into(),
            ));
        };
        let default = match self.default_model {
            Some(name) => {
                if !self.models.iter().any(|(n, _)| *n == name) {
                    return Err(ServeError::UnknownModel { model: name });
                }
                name
            }
            None => first.0.clone(),
        };
        Ok((self.models, default))
    }
}

/// A single recogniser is a one-entry registry under [`DEFAULT_MODEL`].
impl From<Recognizer> for ModelRegistry {
    fn from(recognizer: Recognizer) -> Self {
        ModelRegistry {
            models: vec![(DEFAULT_MODEL.to_string(), Arc::new(recognizer))],
            default_model: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_core::DecoderConfig;
    use asr_corpus::{TaskConfig, TaskGenerator};

    fn recognizer() -> Recognizer {
        let task = TaskGenerator::new(7).generate(&TaskConfig::tiny()).unwrap();
        Recognizer::new(
            task.acoustic_model.clone(),
            task.dictionary.clone(),
            task.language_model.clone(),
            DecoderConfig::software(),
        )
        .unwrap()
    }

    #[test]
    fn duplicate_and_empty_names_are_rejected() {
        let registry = ModelRegistry::new().register("a", recognizer()).unwrap();
        assert!(matches!(
            registry.register("a", recognizer()),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            ModelRegistry::new().register("", recognizer()),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn default_model_falls_back_to_first_registered() {
        let registry = ModelRegistry::new()
            .register("first", recognizer())
            .unwrap()
            .register("second", recognizer())
            .unwrap();
        assert_eq!(registry.len(), 2);
        assert!(!registry.is_empty());
        let (models, default) = registry.into_parts().unwrap();
        assert_eq!(default, "first");
        assert_eq!(models.len(), 2);
    }

    #[test]
    fn an_unregistered_default_and_an_empty_registry_are_typed_errors() {
        assert!(matches!(
            ModelRegistry::new().into_parts(),
            Err(ServeError::InvalidConfig(_))
        ));
        let registry = ModelRegistry::new()
            .register("a", recognizer())
            .unwrap()
            .default_model("missing");
        assert!(matches!(
            registry.into_parts(),
            Err(ServeError::UnknownModel { model }) if model == "missing"
        ));
    }
}
