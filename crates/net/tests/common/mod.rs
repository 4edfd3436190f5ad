//! Shared fixture: a running runtime on the drill kit's tiny model.

use std::sync::Arc;

use dart_serve::{drill_model, drill_pre, ServeConfig, ServeRuntime};

pub fn start_runtime(cfg: ServeConfig) -> Arc<ServeRuntime> {
    let pre = drill_pre();
    Arc::new(ServeRuntime::start(drill_model(&pre, 3), pre, cfg))
}
