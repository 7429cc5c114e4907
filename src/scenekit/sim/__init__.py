"""Deterministic fixed-timestep kinematic traffic simulator."""

from scenekit.sim.worldmap import Lane, MapError, Pose, WorldMap, load_map, builtin_map
from scenekit.sim.geometry import (
    Box,
    box_corners,
    clip_convex,
    contact_faces,
    obbs_overlap,
    points_in_box,
    polygon_centroid,
    rel_heading_deg,
    signed_separation,
)
from scenekit.sim.classify import CollisionClass, classify_collision
from scenekit.sim.engine import (
    AgentState,
    CollisionEvent,
    PlacementError,
    SimConfig,
    Trace,
    run,
)
from scenekit.sim.requirements import RequirementResult, check_requirements
from scenekit.sim.traceio import (
    TraceError,
    read_trace_json,
    trace_from_dict,
    trace_to_dict,
    write_trace_json,
)
