"""hapdock: deterministic simulator for dockable hybrid haptic workspaces.

A worn hand exoskeleton is dynamically docked to grounded force-feedback arms
through magnetic joints; the package models the devices, the docking
lifecycle, the capability algebra of the resulting hybrids and a minimal
impulse-based physics world that routes contact forces between the glove and
the arm.
"""

from .capability import (DockLink, HybridCapability, UNBOUNDED, capability_at,
                         compose_capability)
from .config import Condition, ConfigError, ScenarioConfig, load_scenario
from .devices import (ArmCommand, ArmSpec, ArmState, GloveCommand, GloveSpec,
                      HandCalibration, HandState, arm_step, glove_apply,
                      hand_forward_model, impedance_displacement)
from .docking import (DockJoint, DockJointKind, DockState, dock_step,
                      joint_transmit, pursue, try_attach)
from .frames import RigidTransform
from .harness import MetricLog, OracleResult, run_scenario, weight_oracle
from .routing import RoutedForces, contact_drum_param, route_forces
from .sim import ContactImpulse, RigidBody, SimulationDiverged, World, step_world

__version__ = "0.1.0"

__all__ = [
    "ArmCommand", "ArmSpec", "ArmState", "Condition", "ConfigError",
    "ContactImpulse", "DockJoint", "DockJointKind", "DockLink", "DockState",
    "GloveCommand", "GloveSpec", "HandCalibration", "HandState",
    "HybridCapability", "MetricLog", "OracleResult", "RigidBody",
    "RigidTransform", "RoutedForces", "ScenarioConfig", "SimulationDiverged",
    "UNBOUNDED", "World", "arm_step", "capability_at", "compose_capability",
    "contact_drum_param", "dock_step", "glove_apply", "hand_forward_model",
    "impedance_displacement", "joint_transmit", "load_scenario", "pursue",
    "route_forces", "run_scenario", "step_world", "try_attach", "weight_oracle",
]
