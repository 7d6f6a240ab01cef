"""Scenario runner: fixed-rate coordinator, telemetry log and the weight oracle.

One coordinator tick is 1 ms. Every tick runs physics, force routing and,
arm by arm, the dock lifecycle and the arm admittance callback; glove
commands are issued at their slower contracted rate. Everything is
single-threaded and seeded, so a scenario replays byte-identically.
"""

from __future__ import annotations

import io
import json
import math
import random
import struct
from dataclasses import dataclass

from .config import ORACLE_NOISE_FLOOR_N, ArmConfig, Condition, ScenarioConfig
from .devices import (NUM_FINGERS, ArmCommand, ArmState, GloveCommand, HandState,
                      arm_step, glove_apply, hand_collider_spheres,
                      hand_forward_model, hand_offsets, impedance_displacement)
from .docking import (DockContext, DockJoint, DockState, MagnetChannel,
                      dock_step, joint_transmit, predict_position, pursue,
                      try_attach)
from .frames import RigidTransform, _point_distance, _qmul, _qnormalize, _qrotate
from .geometry import DT, TICK_RATE_HZ, ZERO3, ZERO6, Box, Vec3
from .routing import LowPassFilter, _hand_boxes, contact_drum_param, route_forces
from .sim import (BodyKind, HandCollider, RigidBody, SimulationDiverged,
                  SolverParams, World, step_world)


class MetricLog:
    """Append-only per-tick records plus one self-describing header.

    ``to_bytes`` and ``write`` share one line writer: it encodes the header
    and then each record once, with ``json.dumps``' compact encoder, and
    hands each line's bytes, newline included, straight to one buffer or an
    open file, so no whole-log string or list of lines is ever built."""

    def __init__(self, header: dict):
        self.header = header
        self.records: list[dict] = []

    def append(self, record: dict) -> None:
        self.records.append(record)

    def _write_lines(self, write) -> None:
        encode = json.JSONEncoder(separators=(",", ":")).encode
        write(encode(self.header).encode() + b"\n")
        for r in self.records:
            write(encode(r).encode() + b"\n")

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        self._write_lines(buf.write)
        return buf.getvalue()

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            self._write_lines(fh.write)

    @classmethod
    def read(cls, path) -> "MetricLog":
        """The log in the file ``path``. A file that cannot be read or is not
        UTF-8 raises ``ValueError`` naming ``path``, and a line that is not a
        JSON object one naming ``path:line``. Only a line break (LF, CRLF or
        CR) ends a line, and blank lines are skipped."""
        objects = []
        first = 0                       # the header's line number
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for n, line in enumerate(fh, 1):
                    line = line.rstrip("\n")
                    if not line:
                        continue
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ValueError(f"{path}:{n}: {exc}") from None
                    if not isinstance(obj, dict):
                        raise ValueError(f"{path}:{n}: expected a JSON object, "
                                         f"got {type(obj).__name__}")
                    if not objects:
                        first = n
                    objects.append(obj)
        except OSError as exc:
            raise ValueError(f"{path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not objects:
            raise ValueError(f"{path}: empty log")
        if objects[0].get("record") != "header":
            raise ValueError(f"{path}:{first}: first record is not a header")
        log = cls(objects[0])
        log.records = objects[1:]
        return log


_POSE_BITS = struct.Struct("<7d")
# A trajectory sample: wrist position (the first 24 bytes), five flexes,
# five abductions.
_SAMPLE_BITS = struct.Struct("<13d")
_WRIST_BYTES = 3 * 8
_FINGER_BITS = struct.Struct("<10d")               # five flexes, five abductions


def _same_bits(a: ArmState, b: ArmState) -> bool:
    """Whether two arm states are equal bit for bit: ``==`` would also match
    0.0 with -0.0, which the log tells apart."""
    pa, pb = a.pose, b.pose
    return (a.clamped is b.clamped
            and _POSE_BITS.pack(*pa.rotation, *pa.translation)
            == _POSE_BITS.pack(*pb.rotation, *pb.translation))


class GloveRateViolation(RuntimeError):
    """A glove command was due sooner than the contracted glove period allows."""


@dataclass(slots=True)
class _ArmUnit:
    """One arm's mutable state plus the constants its per-tick work reads."""

    cfg: ArmConfig
    state: ArmState
    dock_state: DockState
    magnet: MagnetChannel
    trigger_box: Box                   # inflated world box; a FREE run never reads it
    park: RigidTransform               # world frame
    park_cmd: ArmCommand               # park target in the base frame
    cooldown_until: float = 0.0
    # A state that parking returns bit for bit: parking ``state`` while it
    # is this object needs no step, as ``arm_step`` is pure.
    parked: ArmState | None = None
    tool: tuple = (None, None)         # (state, its tool point)
    # (the dock state and the six ``DockContext`` flags, ``dock_step``'s
    # result for them)
    step: tuple = (None, None)


@dataclass(slots=True)
class _Dock:
    """The one dock, from attach to release: the docked arm, its joint, the
    follow chain's constants (see ``_attach``) and the results kept for this
    dock. A new attach builds a new dock, so no kept result outlives its
    dock."""

    unit: _ArmUnit
    joint: DockJoint
    c1: Vec3
    c2: Vec3
    rotation: tuple                               # the pinned pose's
    follow: tuple = (None, None)                  # (plate, follow)
    # (filtered, load, command, transmit, displacement)
    cmd: tuple = (None, None, None, None, None)
    arm: tuple = (None, None, None, None)         # (follow, command, state, target)


@dataclass(slots=True)
class _Reuse:
    """Last tick's inputs and outputs of the hand and plate steps a tick
    need not rerun, and the last glove pass's contact-drum stops
    (``stops``). The true plate rides on the wrist pose in ``sample``: both
    are built when the sample's wrist bits move."""

    sample: tuple = (b"", None, None, None)       # (bits, sensed, wrist, true plate)
    # (intended, command, hand); ``intended`` is also the forward model's
    # last result, handed back to it.
    applied: tuple = (None, None, None)
    # (hand, wrist) the colliders last moved to, whether they were moved to
    # it twice in a row, and the hand's finger bits and ``hand_offsets``.
    collider: tuple = (None, None, False, None, None)
    # (plate position, plate velocity, predicted position, triggers)
    trigger: tuple = (None, None, None, None)
    routed: tuple = (None, None, None, None)      # (plate position, report, docked, routed)
    support: tuple = (None, None)                 # (report, support)
    # (wrist, intended, box bits, stops) of the last glove pass that ran
    # the contact-drum searches; the box bits are the packed position and
    # half extents of every body that collides with the hand.
    stops: tuple = (None, None, None, None)


class Coordinator:
    """Owns all mutable state and drives one scenario tick by tick.

    A kept result is last tick's output of pure steps, kept once at the
    inputs that decide it and handed back while those are last tick's
    objects or have last tick's packed ``struct`` bits (``==`` would match
    0.0 with -0.0); a later stage keys on the object handed back, and the
    defaults of the slots are the cold values. The slots are ``reuse`` (the
    hand, the wrist with its true plate, the glove's contact-drum stops
    ``reuse.stops`` and the plate's later stages), the one ``dock``
    (``_Dock``, dropped at release), ``_ArmUnit.parked``, ``tool`` and
    ``step`` (the dock transition), ``World.fixed_point`` and
    ``LowPassFilter._still``. ``_prev_plate`` is run history, not a kept
    result."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.glove_period = cfg.coordinator.glove_period_ticks
        self.world = self._build_world()
        self.filter = LowPassFilter(cfg.coordinator.filter_cutoff_hz)
        self.glove_cmd = GloveCommand(
            spring_constant=(cfg.glove.spring_constant,) * NUM_FINGERS)
        dock = cfg.dock
        self.tool_inv = dock.tool_offset.inverse()
        self.unattached_joint = DockJoint(
            kind=dock.joint_kind, breaking_force=dock.breaking_force,
            friction_mu=dock.friction_mu, contact_radius=dock.contact_radius)
        self.units = [self._unit(arm) for arm in cfg.arms]
        # Appended after the arms' turns, in arm order.
        self.arm_target_events = [f"arm_target:{arm.name}" for arm in cfg.arms]
        # Normalized once; ``sample_track`` already returns float tuples.
        wrist_rotation = RigidTransform.from_quat(cfg.trajectory.wrist_rotation).rotation
        self.wrist_rotation = wrist_rotation
        # The plate's rotation is a scenario constant: the wrist rotation is
        # one and ``_tracked_plate`` adds noise to the translation only. So
        # ``wrist.compose(plate_offset)`` is the tick's wrist position
        # plus ``plate_shift`` with the rotation ``plate_rotation``, and
        # ``plate.inverse()`` rotates by ``plate_rotation_inv``: the same
        # float operations as ``compose`` and ``inverse``, done once.
        offset = dock.plate_offset
        self.plate_rotation = _qnormalize(_qmul(wrist_rotation, offset.rotation))
        self.plate_rotation_inv = RigidTransform(self.plate_rotation).inverse().rotation
        self.plate_shift = _qrotate(wrist_rotation, offset.translation)
        self.dock: _Dock | None = None
        self.rng = random.Random(cfg.seed)
        self.noise_std = cfg.tracking_noise_std_m
        # Without a body that collides with the hand nothing reads the
        # hand colliders, so none are built.
        self.hand_contacts = any(b.collide_with_hand for b in self.world.bodies)
        self._prev_plate: Vec3 | None = None
        self._last_glove_tick: int | None = None
        self.reuse = _Reuse()
        self.log = MetricLog(self._header())

    def _unit(self, arm: ArmConfig) -> _ArmUnit:
        spec, dock = arm.spec, self.cfg.dock
        park = RigidTransform.from_translation(arm.park_position)
        return _ArmUnit(
            cfg=arm, state=ArmState(pose=park),
            dock_state=DockState.FREE,
            magnet=MagnetChannel(latency_s=dock.magnet_latency_s),
            trigger_box=spec.workspace_box_world().inflate(dock.workspace_inflation_m),
            park=park,
            park_cmd=ArmCommand(target=spec.base_inv.compose(park),
                                speed_limit=arm.pursuit_speed))

    def _header(self) -> dict:
        c = self.cfg
        return {
            "record": "header",
            "schema": 1,
            "scenario": c.name,
            "seed": c.seed,
            "condition": c.condition.value,
            "tick_rate_hz": TICK_RATE_HZ,
            "ticks": c.coordinator.ticks,
            "arms": [a.name for a in c.arms],
            "bodies": [b.name for b in c.scene.bodies],
            "fields": {
                "t": "simulated time, s",
                "events": "glove_cmd / arm_target:<arm> / intercept:<arm> / "
                          "attach:<arm> / release:<arm> / abort:<arm> / demagnetized:<arm>",
                "wrist": "wrist position, world, m",
                "flex": "actual normalized finger flex after stops",
                "stops": "active contact-drum stop per finger",
                "resist": "glove resistance torque per finger, Nm",
                "sensor_clamps": "count of sensor channels clamped to the calibrated range",
                "cmd_wrench": "commanded arm wrench, world frame, N / Nm",
                "net_force": "net world-referenced hand-contact force, N",
                "support": "vertical hand->body force per dynamic body, N",
                "arms[].rendered": "wrench transmitted to the hand, world frame",
                "arms[].tool_dist": "magnet face to plate distance, m",
            },
        }

    def _build_world(self) -> World:
        scene = self.cfg.scene
        world = World(gravity=scene.gravity,
                      params=SolverParams(iterations=scene.solver_iterations,
                                          slop=scene.slop,
                                          surface_stiffness=scene.surface_stiffness))
        for b in scene.bodies:
            world.add_body(RigidBody(
                name=b.name, kind=BodyKind(b.kind), position=b.center,
                half_extents=b.half_extents, velocity=b.velocity, mass=b.mass,
                collide_with_hand=b.collide_with_hand))
        return world

    # -- per-tick pipeline -------------------------------------------------

    def run(self) -> MetricLog:
        for tick in range(self.cfg.coordinator.ticks):
            self._tick(tick)
        return self.log

    def _hand_for_tick(self, t: float, events: list[str],
                       tick: int) -> tuple[HandState, RigidTransform, RigidTransform]:
        """The hand after the glove's stops and the wrist pose for tick
        ``tick`` at time ``t``, issuing the glove command when one is due.

        Also returns the plate's true pose. The trajectory sample's bits key
        the wrist pose, with its true plate, and the sensed tuple apart, so
        each is rebuilt only when its part of the sample moved.
        The forward model keys on the sensed tuple, and ``glove_apply`` on
        the intended hand and the glove command, new every glove period.
        A glove pass reruns the five contact-drum searches only when the
        wrist or the intended hand is another object than at the last pass
        that ran them, or a hand-colliding body's position or half extents
        moved a bit; otherwise its command takes that pass's stops.
        ``hand_forward_model`` is still called once per tick, first in the
        tick: perfbench's tick hook counts those calls.
        """
        cfg, reuse = self.cfg, self.reuse
        wrist_pos, flex_int, abd = cfg.trajectory.sample(t)
        cal = cfg.glove.calibration
        key = _SAMPLE_BITS.pack(*wrist_pos, *flex_int, *abd)
        last_key, sensed, wrist, plate = reuse.sample
        if key != last_key:
            fingers_moved = key[_WRIST_BYTES:] != last_key[_WRIST_BYTES:]
            if not fingers_moved or key[:_WRIST_BYTES] != last_key[:_WRIST_BYTES]:
                wrist = RigidTransform(self.wrist_rotation, wrist_pos)
                plate = self._plate_truth(wrist_pos)
            if fingers_moved:
                # The spare wrist channel is last, unused by the forward model.
                sensed = (*(cal.flex_min[i] + flex_int[i] * (cal.flex_max[i] - cal.flex_min[i])
                            for i in range(NUM_FINGERS)),
                          *(cal.abd_min[i] + abd[i] * (cal.abd_max[i] - cal.abd_min[i])
                            for i in range(NUM_FINGERS)), 0.0)
            reuse.sample = (key, sensed, wrist, plate)
        last_intended, last_cmd, applied = reuse.applied
        intended = hand_forward_model(sensed, cal, last_intended)

        if tick % self.glove_period == 0:
            last = self._last_glove_tick
            if last is not None and tick - last < self.glove_period:
                raise GloveRateViolation(
                    f"glove commanded at tick {tick}, {tick - last} ticks after the "
                    f"previous command; the contract needs {self.glove_period}")
            self._last_glove_tick = tick
            world = self.world
            flat = [v for box in _hand_boxes(world) for v in box]
            bits = struct.pack(f"<{len(flat)}d", *flat)
            last_wrist, last_hand, last_bits, stops = reuse.stops
            if wrist is not last_wrist or intended is not last_hand or bits != last_bits:
                stops = tuple(contact_drum_param(wrist, intended, k, world)
                              for k in range(NUM_FINGERS))
                reuse.stops = (wrist, intended, bits, stops)
            self.glove_cmd = GloveCommand(
                stop_angle=stops,
                spring_constant=(cfg.glove.spring_constant,) * NUM_FINGERS)
            events.append("glove_cmd")
        if intended is not last_intended or self.glove_cmd is not last_cmd:
            applied = glove_apply(self.glove_cmd, intended, cfg.glove.spec)
            reuse.applied = (intended, self.glove_cmd, applied)
        return applied, wrist, plate

    def _update_hand_colliders(self, hand: HandState, wrist: RigidTransform) -> None:
        """Move the hand colliders to the spheres of ``hand`` at ``wrist``.

        Moving to the same (``HandState``, wrist) pair of objects twice in a
        row gives every collider a +0.0 velocity at the same center; a third
        move would change no bit, so a hand at rest is not moved again. The
        wrist rotation is a scenario constant, so the sphere offsets are
        rebuilt only for another ``HandState`` object whose finger bits
        differ: a glove command makes a new object for the same fingers.
        """
        last_hand, last_wrist, resting, fingers, offsets = self.reuse.collider
        same = hand is last_hand and wrist is last_wrist
        if same and resting:
            return
        if hand is not last_hand:
            key = _FINGER_BITS.pack(*hand.flex, *hand.abduction)
            if key != fingers:
                fingers, offsets = key, hand_offsets(self.wrist_rotation, hand)
        self.reuse.collider = (hand, wrist, same, fingers, offsets)
        spheres = hand_collider_spheres(wrist, offsets)
        world = self.world
        if world.hand:
            # The spheres come in the same order every tick.
            world.move_hand([c for _, c, _ in spheres])
        else:
            world.set_hand([HandCollider(name, c, radius, ZERO3)
                            for name, c, radius in spheres])

    def _tracked_plate(self, plate: RigidTransform) -> RigidTransform:
        if self.noise_std <= 0.0:
            return plate
        gauss, std = self.rng.gauss, self.noise_std
        t = tuple(p + gauss(0.0, std) for p in plate.translation)
        return RigidTransform(plate.rotation, t)

    def _plate_truth(self, wrist: Vec3) -> RigidTransform:
        """The plate's true pose for the wrist position ``wrist``: equal bit
        for bit to the wrist pose there ``.compose(plate_offset)``."""
        sx, sy, sz = self.plate_shift
        return RigidTransform(self.plate_rotation,
                              (wrist[0] + sx, wrist[1] + sy, wrist[2] + sz))

    def _attach(self, u: _ArmUnit, joint: DockJoint, plate: RigidTransform):
        """Dock ``u`` with ``joint`` and return ``_follow``'s result for
        ``plate``.

        The chain is ``plate.compose(attach_pose).compose(tool_inv)``, its
        local pose ``base_inv.compose(...)`` and the pinned pose
        ``base_pose.compose`` of the clamped local pose. ``compose`` is
        ``N(qmul(a.r, b.r))`` and ``a.t + qrotate(a.r, b.t)``. The wrist
        rotation is a scenario constant, tracking noise moves the plate's
        translation only, and the joint, the arm's base and the tool offset
        are fixed until release, so every rotation is built here once: the
        follow translation is ``(p + c1) + c2`` for the plate position ``p``,
        the same float operations in the same order.
        """
        spec, attach = u.cfg.spec, joint.attach_pose
        rp, tool_inv = self.plate_rotation, self.tool_inv
        q1 = _qnormalize(_qmul(rp, attach.rotation))
        q2 = _qnormalize(_qmul(q1, tool_inv.rotation))
        q3 = _qnormalize(_qmul(spec.base_inv.rotation, q2))
        q4 = _qnormalize(_qmul(spec.base_pose.rotation, q3))
        self.dock = dock = _Dock(u, joint, _qrotate(rp, attach.translation),
                                 _qrotate(q1, tool_inv.translation), q4)
        return self._follow(dock, plate)

    def _follow(self, dock: _Dock, plate: RigidTransform):
        """Base-frame effector translation that keeps the docked magnet on
        the plate, and that translation clamped to the workspace: three
        additions per component and one rotation, kept for ``plate``."""
        last_plate, follow = dock.follow
        if plate is last_plate:
            return follow
        c1, c2 = dock.c1, dock.c2
        p = plate.translation
        spec = dock.unit.cfg.spec
        local = spec.base_inv.transform_point(((p[0] + c1[0]) + c2[0],
                                               (p[1] + c1[1]) + c2[1],
                                               (p[2] + c1[2]) + c2[2]))
        follow = (local, spec.workspace_box_base().clamp_point(local))
        dock.follow = (plate, follow)
        return follow

    def _winner(self, t: float, predicted: Vec3, triggers: list[bool]) -> _ArmUnit | None:
        """The nearest effector among free arms whose trigger fires and whose
        cooldown is over; ties break toward the lowest arm index."""
        winner = best = None
        for u, trigger in zip(self.units, triggers):
            if u.dock_state is not DockState.FREE or not trigger or t < u.cooldown_until:
                continue
            d = math.dist(u.state.pose.translation, predicted)
            if best is None or d < best - 1e-12:
                best, winner = d, u
        return winner

    def _lifecycle(self, u: _ArmUnit, trigger: bool, won: bool, t: float,
                   plate: RigidTransform, transmit, events: list[str]):
        """Run ``u``'s dock lifecycle for this tick.

        Returns ``(transmitted, slip, follow)``: the wrench transmitted to the
        hand (world frame) and the slip flag, zero unless ``u`` was docked and
        stays docked, and ``_follow``'s result for ``u`` this tick (None when
        ``u`` neither was docked nor attached). ``transmit`` is ``_command``'s,
        read only while ``u`` is docked.

        ``dock_step`` is pure over the dock state and the six context flags,
        so ``u.step`` keeps its result for them, keyed on the state and the
        flags in ``DockContext``'s field order: the context is built from
        the key and ``dock_step`` called only when one of the seven differs
        from the last call's, as for a parked free arm it rarely does. Every
        exit of ``DOCK_PROTOCOL`` changes the state, so the tick after a
        transition steps again, and a kept result is the state with no
        events.
        """
        dock = self.cfg.dock
        transmitted, slip, follow = ZERO6, False, None
        release_demanded = False
        joint_candidate = None
        magnet_on = u.magnet.update(t)
        # Read at each arm's turn: a release frees the slot for a later arm
        # in the same tick.
        docked = self.dock
        slot_available = docked is None

        if docked is not None and u is docked.unit:
            follow = self._follow(docked, plate)
            out, out_slip, released = transmit
            release_demanded = released or math.dist(*follow) > dock.release_slack_m
            if not release_demanded:
                transmitted, slip = out, out_slip

        if u.dock_state is DockState.INTERCEPTING and magnet_on and slot_available:
            magnet_pose = u.state.pose.compose(dock.tool_offset)
            joint_candidate = try_attach(magnet_pose, plate, dock.pos_tol,
                                         dock.ang_tol_rad, self.unattached_joint)

        attach_candidate = joint_candidate is not None
        inputs = (u.dock_state, trigger, won, magnet_on, attach_candidate, slot_available,
                  release_demanded)
        last_inputs, result = u.step
        if inputs != last_inputs:
            result = dock_step(u.dock_state, DockContext(*inputs[1:]))
            u.step = (inputs, result)
        new_state, evs = result
        for ev in evs:
            events.append(f"{ev}:{u.cfg.name}")
            if ev == "intercept":
                u.magnet.command(True, t)
            elif ev == "attach":
                follow = self._attach(u, joint_candidate, plate)
            elif ev in ("release", "abort"):
                u.magnet.command(False, t)
                if ev == "release":
                    self.dock = None
                    u.cooldown_until = t + dock.reattach_cooldown_s
        u.dock_state = new_state
        return transmitted, slip, follow

    def _command(self, dock: _Dock, filtered: tuple[float, ...],
                 load: tuple[float, ...]):
        """The docked arm's command wrench, world frame, and its transmit,
        kept with the command's displacement for ``filtered`` and ``load``.

        The command is ``filtered`` clamped to the arm's envelope under force
        feedback, plus the injected ``load``; the transmit is
        ``joint_transmit``'s ``(transmitted, slip, released)`` for it in the
        plate frame, turned back to the world frame (the plate's rotation is
        a scenario constant)."""
        last_filtered, last_load, cmd, out, _ = dock.cmd
        if filtered is last_filtered and load is last_load:
            return cmd, out
        spec = dock.unit.cfg.spec
        cmd = ZERO6
        if self.cfg.condition is Condition.FORCE_FEEDBACK:
            # The arm's own actuation saturates at its envelope; injected
            # loads model external pulls on the joint and bypass it.
            limits = spec.max_force + spec.max_torque
            cmd = tuple(min(hi, max(-hi, v)) for v, hi in zip(filtered, limits))
        cmd = tuple(c + l for c, l in zip(cmd, load))
        inv, rp = self.plate_rotation_inv, self.plate_rotation
        cmd_plate = _qrotate(inv, cmd[:3]) + _qrotate(inv, cmd[3:])
        out_plate, slip, released = joint_transmit(dock.joint, cmd_plate)
        out = (_qrotate(rp, out_plate[:3]) + _qrotate(rp, out_plate[3:]), slip, released)
        dock.cmd = (filtered, load, cmd, out,
                    impedance_displacement(cmd[:3], spec.stiffness))
        return cmd, out

    def _control(self, u: _ArmUnit, follow, plate: RigidTransform,
                 cmd_world: tuple[float, ...]) -> RigidTransform:
        """Step ``u``'s arm for this tick and return its target, world frame.
        ``follow`` is the lifecycle's, read only while ``u`` is docked."""
        spec = u.cfg.spec
        dock = self.dock
        if dock is not None and u is dock.unit:
            last_follow, last_cmd, state, target = dock.arm
            if follow is not last_follow or cmd_world is not last_cmd:
                # An attach tick's command is not the new dock's.
                _, _, cmd, _, disp = dock.cmd
                if cmd_world is not cmd:
                    disp = impedance_displacement(cmd_world[:3], spec.stiffness)
                local, clamped_pos = follow
                pos = spec.base_pose.transform_point(clamped_pos)
                state = ArmState(pose=RigidTransform(dock.rotation, pos),
                                 clamped=clamped_pos != local)
                target = RigidTransform(dock.rotation, (pos[0] + disp[0], pos[1] + disp[1],
                                                        pos[2] + disp[2]))
                dock.arm = (follow, cmd_world, state, target)
            u.state = state
            return target
        if u.dock_state is DockState.INTERCEPTING:
            cmd = pursue(u.state.pose, plate, u.cfg.pursuit_speed,
                         base_pose=spec.base_pose, tool_offset=self.cfg.dock.tool_offset)
            u.state = arm_step(spec, u.state, cmd)
            return spec.base_pose.compose(cmd.target)
        if u.dock_state is DockState.RELEASING:
            hold = spec.base_inv.compose(u.state.pose)
            cmd = ArmCommand(target=hold, speed_limit=u.cfg.pursuit_speed)
            # A releasing arm reports no clamp.
            u.state = ArmState(pose=arm_step(spec, u.state, cmd).pose)
            return u.state.pose
        if u.state is not u.parked:
            state = arm_step(spec, u.state, u.park_cmd)
            if _same_bits(state, u.state):
                u.parked = u.state
            else:
                u.state = state
        return u.park

    def _tick(self, tick: int) -> None:
        """Run one tick and log its record.

        Each arm in turn runs its dock lifecycle, then its control, then its
        ``arms[]`` entry; no turn reads another arm's control or entry, and
        the lifecycles share the one ``dock`` in arm order, so a release
        frees it for a later arm in the same tick.

        A record reads two instants. ``docked_arm`` is the arm docked when the
        tick starts: it picks the force route and ``cmd_wrench``. ``arms[]``
        is read after each arm's turn. So the attach tick logs
        ``docked_arm: null`` with the arm ``docked`` (handover_sweep tick
        199), and a handover tick names the releasing arm while the next one
        is ``docked`` (tick 4134).

        Tracking noise is a position error of the tracker: the interception
        extrapolates the tracked plate with the true plate's velocity, so the
        noise is not differenced into a velocity (which would scale it by
        1/DT). Without noise the two plates are one.

        Every stage keeps its result by the rule stated on ``Coordinator``,
        so a still wrist reruns none of the plate's work (the true plate is
        built with the wrist pose, and ``step_world`` hands back one report
        object at a fixed point). The true plate's
        velocity is ``ZERO3`` while it is last tick's object: ``(x - x) /
        DT`` is +0.0 for every finite ``x``.
        """
        cfg, reuse = self.cfg, self.reuse
        t = tick * DT
        events: list[str] = []

        hand, wrist, plate_truth = self._hand_for_tick(t, events, tick)
        if self.hand_contacts:
            self._update_hand_colliders(hand, wrist)

        try:
            _, impulses = step_world(self.world)
        except SimulationDiverged as exc:
            raise SimulationDiverged(f"t={t:.3f}s: {exc}") from exc

        plate = self._tracked_plate(plate_truth)
        plate_pos = plate.translation
        truth_pos = plate_truth.translation
        prev = self._prev_plate
        plate_vel = (ZERO3 if prev is None or prev is truth_pos else
                     ((truth_pos[0] - prev[0]) / DT, (truth_pos[1] - prev[1]) / DT,
                      (truth_pos[2] - prev[2]) / DT))
        self._prev_plate = truth_pos

        dock = self.dock
        is_docked = dock is not None
        last_pos, last_report, last_docked, routed = reuse.routed
        if (plate_pos is not last_pos or impulses is not last_report
                or is_docked is not last_docked):
            routed = route_forces(impulses, is_docked, reference_point=plate_pos)
            reuse.routed = (plate_pos, impulses, is_docked, routed)

        # The magnet-on-plate dock cannot carry torque about its normal and the
        # hand is kept flat, so only the net force is rendered.
        filter_input = ZERO6
        if is_docked and cfg.condition is Condition.FORCE_FEEDBACK:
            filter_input = routed.net_force + ZERO3
        filtered = self.filter.update(filter_input)

        cmd_world, transmit = ZERO6, None
        if is_docked:
            cmd_world, transmit = self._command(dock, filtered, cfg.sample_injected_load(t))

        last_report, support = reuse.support
        if impulses is not last_report:
            support = {}
            for body in self.world.bodies:
                if body.kind is not BodyKind.DYNAMIC:
                    continue
                total = 0.0
                for imp in impulses:
                    if imp.hand_collider is not None and imp.body_b == body.name:
                        total += imp.magnitude / DT * imp.normal[1]
                support[body.name] = float(total)
            reuse.support = (impulses, support)

        lifecycle = cfg.condition is not Condition.FREE
        if lifecycle:
            last_pos, last_vel, predicted, triggers = reuse.trigger
            if plate_pos is not last_pos or plate_vel is not last_vel:
                predicted = predict_position(plate_pos, plate_vel,
                                             cfg.dock.interception_horizon_s)
                triggers = [u.trigger_box.contains(predicted) for u in self.units]
                reuse.trigger = (plate_pos, plate_vel, predicted, triggers)
            winner = self._winner(t, predicted, triggers)
        tool_local = cfg.dock.tool_offset.translation    # effector frame
        arms_rec = []
        for i, u in enumerate(self.units):
            transmitted, slip, follow = ZERO6, False, None
            if lifecycle:
                transmitted, slip, follow = self._lifecycle(
                    u, triggers[i], u is winner, t, plate, transmit, events)
            target = self._control(u, follow, plate, cmd_world)
            state = u.state
            pose = state.pose
            last_state, tool = u.tool
            if state is not last_state:
                tool = pose.transform_point(tool_local)
                u.tool = (state, tool)
            arms_rec.append({
                "name": u.cfg.name,
                "state": u.dock_state._value_,        # ``.value`` is a property
                "pos": pose.translation,
                "quat": pose.rotation,
                "target": target.translation,
                "rendered": transmitted,
                "slip": slip,
                "clamped": state.clamped,
                "tool_dist": _point_distance(tool, truth_pos),
                "magnet": u.magnet.effective,
            })
        events.extend(self.arm_target_events)

        self.log.append({
            "tick": tick,
            "t": t,
            "dt": DT,
            "events": events,
            "wrist": wrist.translation,
            "flex": hand.flex,
            "stops": self.glove_cmd.stop_angle,
            "resist": hand.resist_torques,
            "sensor_clamps": sum(hand.clamp_flags),
            "cmd_wrench": cmd_world,
            "net_force": routed.net_force,
            "net_torque": routed.net_torque,
            "residual": routed.residual,
            "paired": routed.paired_magnitude,
            "contacts": routed.hand_contact_count,
            "support": support,
            "docked_arm": dock.unit.cfg.name if is_docked else None,
            "arms": arms_rec,
        })


def run_scenario(cfg: ScenarioConfig) -> MetricLog:
    """Execute one scenario deterministically and return its telemetry."""
    return Coordinator(cfg).run()


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Weight ranking inferred from rendered support forces."""

    verdict: str                      # ordered | indistinguishable | tie
    order: tuple[str, ...]            # ascending inferred weight
    mean_force: dict
    confidence: float
    ties: tuple[tuple[str, ...], ...] = ()


def weight_oracle(log: MetricLog, lift_windows: dict,
                  noise_floor_n: float = ORACLE_NOISE_FLOOR_N) -> OracleResult:
    """Rank bodies by time-averaged rendered support force over their windows.

    Confidence is the smallest pairwise relative force gap between adjacent
    ranks. When every mean sits below the noise floor the cans cannot be told
    apart; adjacent means closer than the floor, or equal, are reported as
    ties rather than forced into an order. Any other verdict ranks, so it
    needs at least two windows, and each gap is relative to the heavier
    window's mean, which must be positive.
    """
    if not lift_windows:
        raise ValueError("lift_windows must contain at least one window")
    means = {}
    for name, (t0, t1) in lift_windows.items():
        if not t0 < t1:
            raise ValueError(f"window for {name!r} must satisfy t0 < t1")
        samples = []
        for i, rec in enumerate(log.records):
            try:
                if t0 <= rec["t"] <= t1:
                    rendered_y = sum(arm["rendered"][1] for arm in rec["arms"])
                    samples.append(-rendered_y)
            except KeyError as exc:
                raise ValueError(f"log record {i} has no field {exc.args[0]!r}") from None
            except (TypeError, IndexError) as exc:
                raise ValueError(f"log record {i} is malformed: {exc}") from None
        if not samples:
            raise ValueError(f"window for {name!r} contains no log records")
        means[name] = float(sum(samples) / len(samples))

    order = tuple(sorted(means, key=lambda n: (means[n], n)))
    if all(abs(means[n]) < noise_floor_n for n in order):
        return OracleResult(verdict="indistinguishable", order=order,
                            mean_force=means, confidence=0.0)
    if len(order) < 2:
        raise ValueError("ranking needs at least two lift windows")

    ties = []
    group = [order[0]]
    for prev, cur in zip(order, order[1:]):
        gap = means[cur] - means[prev]
        if gap < noise_floor_n or gap == 0.0:
            group.append(cur)
        else:
            if len(group) > 1:
                ties.append(tuple(group))
            group = [cur]
    if len(group) > 1:
        ties.append(tuple(group))
    if ties:
        return OracleResult(verdict="tie", order=order, mean_force=means,
                            confidence=0.0, ties=tuple(ties))

    for hi in order[1:]:
        if means[hi] <= 0.0:
            raise ValueError(f"window for {hi!r} ranks above another but its mean "
                             f"support force {means[hi]!r} N is not positive")
    confidence = min((means[hi] - means[lo]) / means[hi]
                     for lo, hi in zip(order, order[1:]))
    return OracleResult(verdict="ordered", order=order, mean_force=means,
                        confidence=float(confidence))


def summarize(log: MetricLog) -> dict:
    """Compact run summary for the CLI."""
    attaches, releases = [], []
    max_rendered = 0.0
    for r in log.records:
        for e in r["events"]:
            if e.startswith("attach:"):
                attaches.append((r["t"], e))
            elif e.startswith("release:"):
                releases.append((r["t"], e))
        for arm in r["arms"]:
            f = arm["rendered"]
            max_rendered = max(max_rendered,
                               math.sqrt(f[0] * f[0] + f[1] * f[1] + f[2] * f[2]))
    return {
        "scenario": log.header["scenario"],
        "condition": log.header["condition"],
        "ticks": len(log.records),
        "attach_events": attaches,
        "release_events": releases,
        "max_rendered_force_n": max_rendered,
    }
