"""Collision taxonomy: map a contact's participants and geometry to a class."""

from __future__ import annotations

from scenekit.dsl.nodes import AgentClass, CollisionClass


# Angle thresholds in degrees; the relative heading is folded into [0, 180].
T_BONE_MIN_DEG = 65.0
T_BONE_MAX_DEG = 115.0
REAR_END_MAX_DEG = 25.0


def classify_collision(
    class_a: AgentClass,
    class_b: AgentClass,
    rel_heading: float,
    faces: tuple[str, str],
) -> CollisionClass:
    """Classify a contact.

    Participant classes win over geometry: any vehicle-bicycle pair is a
    cyclist collision and any vehicle-pedestrian pair a pedestrian collision,
    whatever the angle.  Vehicle-vehicle contacts use relative heading plus
    contact faces: near-perpendicular with one box struck on a side is a
    T-bone; near-parallel front-to-rear is a rear-end; anything else (head-on,
    sideswipe, odd geometry) is other.
    """
    pair = {class_a, class_b}
    if AgentClass.BICYCLE in pair and (pair & {AgentClass.CAR, AgentClass.TRUCK}):
        return CollisionClass.VEHICLE_CYCLIST
    if AgentClass.PEDESTRIAN in pair and (pair & {AgentClass.CAR, AgentClass.TRUCK}):
        return CollisionClass.VEHICLE_PEDESTRIAN
    if not (class_a.is_vehicle and class_b.is_vehicle):
        return CollisionClass.OTHER

    face_a, face_b = faces
    if T_BONE_MIN_DEG <= rel_heading <= T_BONE_MAX_DEG:
        sides = ("left", "right")
        if (face_a == "front" and face_b in sides) or (face_b == "front" and face_a in sides):
            return CollisionClass.T_BONE
    if rel_heading < REAR_END_MAX_DEG:
        if {face_a, face_b} == {"front", "rear"}:
            return CollisionClass.REAR_END
    return CollisionClass.OTHER
