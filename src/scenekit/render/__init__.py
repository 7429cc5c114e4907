"""Control-map rendering: segmentation, depth, and edge rasters plus their
weighted combination."""

from scenekit.render.cameras import (  # noqa: F401
    CameraError,
    PinholeCamera,
    TopDownCamera,
    camera_from_dict,
    camera_to_dict,
)
from scenekit.render.combine import (  # noqa: F401
    PRESETS,
    DimensionMismatch,
    combine_controls,
    load_weights,
    normalize_modality,
)
from scenekit.render.raster import (  # noqa: F401
    CLASS_HEIGHTS,
    SegClass,
    edge_from_seg,
    prepare_static,
    render_frame,
)
