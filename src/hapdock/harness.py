"""Scenario runner: fixed-rate coordinator, telemetry log and the weight oracle.

One coordinator tick is 1 ms. Every tick runs physics, force routing and,
arm by arm, the dock lifecycle and the arm admittance callback; glove
commands are issued at their slower contracted rate. Everything is
single-threaded and seeded, so a scenario replays byte-identically.
"""

from __future__ import annotations

import json
import math
import random
import struct
from dataclasses import dataclass

from .config import ORACLE_NOISE_FLOOR_N, ArmConfig, Condition, ScenarioConfig
from .devices import (TICK_RATE_HZ, ArmCommand, ArmState, GloveCommand, HandState,
                      arm_step, glove_apply, hand_collider_spheres,
                      hand_forward_model, impedance_displacement)
from .docking import (DockContext, DockJoint, DockState, MagnetChannel,
                      dock_step, joint_transmit, predict_position, pursue,
                      try_attach)
from .frames import RigidTransform, _qmul, _qnormalize, _qrotate
from .geometry import Box, Vec3
from .routing import LowPassFilter, contact_drum_param, route_forces
from .sim import (BodyKind, HandCollider, RigidBody, SimulationDiverged,
                  SolverParams, World, step_world)


class MetricLog:
    """Append-only per-tick records plus one self-describing header."""

    def __init__(self, header: dict):
        self.header = header
        self.records: list[dict] = []

    def append(self, record: dict) -> None:
        self.records.append(record)

    def to_bytes(self) -> bytes:
        lines = [json.dumps(self.header, separators=(",", ":"))]
        lines.extend(json.dumps(r, separators=(",", ":")) for r in self.records)
        return ("\n".join(lines) + "\n").encode("utf-8")

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def read(cls, path) -> "MetricLog":
        """The log in the file ``path``. A line that is not a JSON object
        raises ``ValueError`` naming ``path:line``; blank lines are skipped."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, line) for n, line in enumerate(fh.read().splitlines(), 1)
                     if line]
        if not lines:
            raise ValueError(f"{path}: empty log")
        objects = []
        for n, line in lines:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{n}: expected a JSON object, "
                                 f"got {type(obj).__name__}")
            objects.append(obj)
        if objects[0].get("record") != "header":
            raise ValueError(f"{path}:{lines[0][0]}: first record is not a header")
        log = cls(objects[0])
        log.records = objects[1:]
        return log


ZERO3 = (0.0, 0.0, 0.0)
ZERO6 = (0.0,) * 6


_POSE_BITS = struct.Struct("<7d")
# A trajectory sample: wrist position (the first 24 bytes), five flexes,
# five abductions.
_SAMPLE_BITS = struct.Struct("<13d")
_WRIST_BYTES = 3 * 8


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
    trigger_box: Box | None            # inflated world box; None when never docking
    park: RigidTransform               # world frame
    park_cmd: ArmCommand               # park target in the base frame
    cooldown_until: float = 0.0
    # A state that parking returns bit for bit: parking ``state`` while it
    # is this object needs no step, as ``arm_step`` is pure.
    parked: ArmState | None = None
    # (pose, pose.compose(tool_offset)) of the last record.
    tool_pose: tuple[RigidTransform, RigidTransform] | None = None


class Coordinator:
    """Owns all mutable state and drives one scenario tick by tick."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.dt = cfg.coordinator.dt
        self.glove_period = cfg.coordinator.glove_period_ticks
        self.world = self._build_world()
        self.filter = LowPassFilter(cfg.coordinator.filter_cutoff_hz, self.dt, size=6)
        self.glove_cmd = GloveCommand(
            spring_constant=(cfg.glove.spring_constant,) * 5)
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
        # The one dock slot: ``docked``, ``joint`` and ``chain`` (the follow
        # chain's constants) from attach to release. The wrist rotation is a
        # scenario constant, tracking noise moves the plate's translation
        # only, and the joint's ``attach_pose``, the arm's base and the tool
        # offset are fixed from attach to release, so ``_attach`` builds
        # every rotation of the docked chain once.
        self.docked: _ArmUnit | None = None
        self.joint: DockJoint | None = None
        self.chain: tuple | None = None
        self.rng = random.Random(cfg.seed)
        self.noise_std = cfg.tracking_noise_std_m
        # Without a body that collides with the hand nothing reads the
        # hand colliders, so none are built.
        self.hand_contacts = any(b.collide_with_hand for b in self.world.bodies)
        self._prev_plate: Vec3 | None = None
        self._last_glove_tick: int | None = None
        # The hand layer's last inputs and outputs, so that a still hand is
        # not recomputed; see ``_hand_for_tick`` and ``_update_hand_colliders``.
        self._sample: tuple = (None, None, None)      # (bits, sensed, wrist)
        self._applied: tuple = (None, None, None)     # (intended, command, hand)
        # (hand, wrist) last moved to, and whether it was moved to twice in a row.
        self._collider: tuple = (None, None, False)
        self.log = MetricLog(self._header())

    def _unit(self, arm: ArmConfig) -> _ArmUnit:
        spec = arm.spec
        park = RigidTransform.from_translation(arm.park_position)
        trigger_box = None
        if self.cfg.condition is not Condition.FREE:
            trigger_box = spec.workspace_box_world().inflate(
                self.cfg.dock.workspace_inflation_m)
        return _ArmUnit(
            cfg=arm, state=ArmState(pose=park),
            dock_state=DockState.FREE,
            magnet=MagnetChannel(latency_s=self.cfg.dock.magnet_latency_s),
            trigger_box=trigger_box, park=park,
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
                       tick: int) -> tuple[HandState, RigidTransform]:
        """The hand after the glove's stops and the wrist pose for tick
        ``tick`` at time ``t``, issuing the glove command when one is due.

        Still fingers cost only their keys. A trajectory sample whose packed
        bits match last tick's (bits, not ``==``, so a zero's sign counts)
        reuses last tick's sensed values and wrist pose, and one whose wrist
        alone moved reuses the sensed values. ``hand_forward_model`` is
        still called once per tick, first in the tick: perfbench's tick hook
        counts those calls. Its memo hands back last tick's ``HandState``
        object for the same sensed bits, however the wrist moved, and
        ``glove_apply`` is pure, so its result is kept while both that object
        and the glove command object are last tick's; a new command every
        glove period breaks it.
        """
        cfg = self.cfg
        wrist_pos, flex_int, abd = cfg.trajectory.sample(t)
        cal = cfg.glove.calibration
        key = _SAMPLE_BITS.pack(*wrist_pos, *flex_int, *abd)
        last_key, sensed, wrist = self._sample
        if key != last_key:
            wrist = RigidTransform(self.wrist_rotation, wrist_pos)
            if last_key is None or key[_WRIST_BYTES:] != last_key[_WRIST_BYTES:]:
                sensed = [cal.flex_min[i] + flex_int[i] * (cal.flex_max[i] - cal.flex_min[i])
                          for i in range(5)]
                sensed += [cal.abd_min[i] + abd[i] * (cal.abd_max[i] - cal.abd_min[i])
                           for i in range(5)]
                sensed.append(0.0)  # spare wrist channel, unused by the forward model
            self._sample = (key, sensed, wrist)
        intended = hand_forward_model(sensed, cal)

        if tick % self.glove_period == 0:
            last = self._last_glove_tick
            if last is not None and tick - last < self.glove_period:
                raise GloveRateViolation(
                    f"glove commanded at tick {tick}, {tick - last} ticks after the "
                    f"previous command; the contract needs {self.glove_period}")
            self._last_glove_tick = tick
            stops = tuple(contact_drum_param(wrist, intended, k, self.world)
                          for k in range(5))
            self.glove_cmd = GloveCommand(
                stop_angle=stops,
                spring_constant=(cfg.glove.spring_constant,) * 5)
            events.append("glove_cmd")
        last_intended, last_cmd, applied = self._applied
        if intended is not last_intended or self.glove_cmd is not last_cmd:
            applied = glove_apply(self.glove_cmd, intended, cfg.glove.spec)
            self._applied = (intended, self.glove_cmd, applied)
        return applied, wrist

    def _update_hand_colliders(self, hand: HandState, wrist: RigidTransform) -> None:
        """Move the hand colliders to the spheres of ``hand`` at ``wrist``.

        Moving to the same (``HandState``, wrist) pair of objects twice in a
        row gives every collider a +0.0 velocity at the same center; a third
        move would change no bit, so a hand at rest is not moved again.
        """
        last_hand, last_wrist, resting = self._collider
        same = hand is last_hand and wrist is last_wrist
        if same and resting:
            return
        self._collider = (hand, wrist, same)
        spheres = hand_collider_spheres(wrist, hand)
        world = self.world
        if world.hand:
            # The spheres come in the same order every tick.
            world.move_hand([c for _, c, _ in spheres], self.dt)
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
        """Give the dock slot to ``u`` with ``joint``, build the follow
        chain's constants and return ``_follow``'s result for ``plate``.

        The chain is ``plate.compose(attach_pose).compose(tool_inv)``, its
        local pose ``base_inv.compose(...)``, the pinned pose
        ``base_pose.compose`` of the clamped local pose and the tool pose
        ``pinned.compose(tool_offset)``. ``compose`` is ``N(qmul(a.r, b.r))``
        and ``a.t + qrotate(a.r, b.t)``, so with every rotation constant
        ``chain`` holds ``(c1, c2, pinned rotation, tool rotation, tool
        vector)``: the follow translation is ``(p + c1) + c2`` for the plate
        position ``p``, and the tool position is the pinned position plus
        the tool vector, the same float operations in the same order.
        """
        spec, attach = u.cfg.spec, joint.attach_pose
        rp, tool_inv = self.plate_rotation, self.tool_inv
        tool = self.cfg.dock.tool_offset
        q1 = _qnormalize(_qmul(rp, attach.rotation))
        q2 = _qnormalize(_qmul(q1, tool_inv.rotation))
        q3 = _qnormalize(_qmul(spec.base_inv.rotation, q2))
        q4 = _qnormalize(_qmul(spec.base_pose.rotation, q3))
        self.docked, self.joint = u, joint
        self.chain = (_qrotate(rp, attach.translation), _qrotate(q1, tool_inv.translation),
                      q4, _qnormalize(_qmul(q4, tool.rotation)),
                      _qrotate(q4, tool.translation))
        return self._follow(u, plate)

    def _follow(self, u: _ArmUnit, plate: RigidTransform):
        """Base-frame effector translation that keeps the docked magnet on
        the plate, and that translation clamped to the workspace.

        Only the plate's translation moves from attach to release (the wrist
        rotation is a scenario constant, tracking noise moves the translation
        only, and the joint is fixed), so the rotations come from ``chain``
        and a tick does three additions per component and one rotation.
        """
        c1, c2 = self.chain[:2]
        p = plate.translation
        spec = u.cfg.spec
        local = spec.base_inv.transform_point(((p[0] + c1[0]) + c2[0],
                                               (p[1] + c1[1]) + c2[1],
                                               (p[2] + c1[2]) + c2[2]))
        return local, spec.workspace_box_base().clamp_point(local)

    def _winner(self, t: float, predicted: Vec3, triggers: list[bool]) -> _ArmUnit | None:
        """The nearest effector among free arms whose trigger fires and whose
        cooldown is over; ties break toward the lowest arm index."""
        winner = None
        best = None
        for u, trigger in zip(self.units, triggers):
            if u.dock_state is not DockState.FREE or not trigger:
                continue
            if t < u.cooldown_until:
                continue
            d = math.dist(u.state.pose.translation, predicted)
            if best is None or d < best - 1e-12:
                best, winner = d, u
        return winner

    def _lifecycle(self, u: _ArmUnit, trigger: bool, won: bool, t: float,
                   plate: RigidTransform, cmd_world: tuple[float, ...],
                   events: list[str]):
        """Run ``u``'s dock lifecycle for this tick.

        Returns ``(transmitted, slip, follow)``: the wrench transmitted to the
        hand (world frame) and the slip flag, zero unless ``u`` was docked and
        stays docked, and ``_follow``'s result for ``u`` this tick (None when
        ``u`` neither was docked nor attached).
        """
        dock = self.cfg.dock
        transmitted, slip, follow = ZERO6, False, None
        release_demanded = False
        joint_candidate = None
        magnet_on = u.magnet.update(t)
        # Read at each arm's turn: a release frees the slot for a later arm
        # in the same tick.
        slot_available = self.docked is None

        if u is self.docked:
            follow = self._follow(u, plate)
            local, clamped = follow
            if math.dist(local, clamped) > dock.release_slack_m:
                release_demanded = True
            inv = self.plate_rotation_inv
            cmd_plate = _qrotate(inv, cmd_world[:3]) + _qrotate(inv, cmd_world[3:])
            out_plate, out_slip, released = joint_transmit(self.joint, cmd_plate)
            if released:
                release_demanded = True
            if not release_demanded:
                rp = self.plate_rotation
                transmitted = _qrotate(rp, out_plate[:3]) + _qrotate(rp, out_plate[3:])
                slip = out_slip

        if u.dock_state is DockState.INTERCEPTING and magnet_on and slot_available:
            magnet_pose = u.state.pose.compose(dock.tool_offset)
            joint_candidate = try_attach(magnet_pose, plate, dock.pos_tol,
                                         dock.ang_tol_rad, self.unattached_joint)

        ctx = DockContext(
            intercept_wanted=trigger,
            arbitration_winner=won,
            magnet_energized=magnet_on,
            attach_candidate=joint_candidate is not None,
            slot_available=slot_available,
            release_demanded=release_demanded,
        )
        new_state, evs = dock_step(u.dock_state, ctx)
        for ev in evs:
            events.append(f"{ev}:{u.cfg.name}")
            if ev == "intercept":
                u.magnet.command(True, t)
            elif ev == "attach":
                follow = self._attach(u, joint_candidate, plate)
            elif ev in ("release", "abort"):
                u.magnet.command(False, t)
                if ev == "release":
                    self.docked = self.joint = self.chain = None
                    u.cooldown_until = t + dock.reattach_cooldown_s
        u.dock_state = new_state
        return transmitted, slip, follow

    def _control(self, u: _ArmUnit, follow, plate: RigidTransform,
                 cmd_world: tuple[float, ...]) -> RigidTransform:
        """Step ``u``'s arm for this tick and return its target, world frame.
        ``follow`` is the lifecycle's, read only while ``u`` is docked."""
        spec = u.cfg.spec
        if u is self.docked:
            local, clamped_pos = follow
            _, _, q_pinned, q_tool, tool_vec = self.chain
            pos = spec.base_pose.transform_point(clamped_pos)
            pinned = RigidTransform(q_pinned, pos)
            u.state = ArmState(pose=pinned, clamped=clamped_pos != local)
            u.tool_pose = (pinned, RigidTransform(
                q_tool, (pos[0] + tool_vec[0], pos[1] + tool_vec[1],
                         pos[2] + tool_vec[2])))
            disp = impedance_displacement(cmd_world[:3], spec.stiffness)
            return RigidTransform(q_pinned, tuple(p + d for p, d in zip(pos, disp)))
        if u.dock_state is DockState.INTERCEPTING:
            cmd = pursue(u.state.pose, plate, u.cfg.pursuit_speed, self.dt,
                         base_pose=spec.base_pose, tool_offset=self.cfg.dock.tool_offset)
            u.state = arm_step(spec, u.state, cmd, self.dt)
            return spec.base_pose.compose(cmd.target)
        if u.dock_state is DockState.RELEASING:
            hold = spec.base_inv.compose(u.state.pose)
            cmd = ArmCommand(target=hold, speed_limit=u.cfg.pursuit_speed)
            # A releasing arm reports no clamp.
            u.state = ArmState(pose=arm_step(spec, u.state, cmd, self.dt).pose)
            return u.state.pose
        if u.state is not u.parked:
            state = arm_step(spec, u.state, u.park_cmd, self.dt)
            if _same_bits(state, u.state):
                u.parked = u.state
            else:
                u.state = state
        return u.park

    def _tick(self, tick: int) -> None:
        """Run one tick and log its record.

        Each arm in turn runs its dock lifecycle, then its control, then its
        ``arms[]`` entry; no turn reads another arm's control or entry, and
        the lifecycles share the one dock slot in arm order, so a release
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
        1/dt). Without noise the two plates are one.
        """
        cfg = self.cfg
        dt = self.dt
        t = tick * dt
        events: list[str] = []

        hand, wrist = self._hand_for_tick(t, events, tick)
        if self.hand_contacts:
            self._update_hand_colliders(hand, wrist)

        try:
            _, impulses = step_world(self.world, dt)
        except SimulationDiverged as exc:
            raise SimulationDiverged(f"t={t:.3f}s: {exc}") from exc

        plate_truth = self._plate_truth(wrist.translation)
        plate = self._tracked_plate(plate_truth)
        plate_pos = plate.translation
        truth_pos = plate_truth.translation
        prev = self._prev_plate
        plate_vel = (ZERO3 if prev is None else
                     ((truth_pos[0] - prev[0]) / dt, (truth_pos[1] - prev[1]) / dt,
                      (truth_pos[2] - prev[2]) / dt))
        self._prev_plate = truth_pos

        docked = self.docked
        routed = route_forces(impulses, docked is not None, dt, reference_point=plate_pos)

        # The magnet-on-plate dock cannot carry torque about its normal and the
        # hand is kept flat, so only the net force is rendered.
        filter_input = ZERO6
        if docked is not None and cfg.condition is Condition.FORCE_FEEDBACK:
            filter_input = routed.net_force + ZERO3
        filtered = self.filter.update(filter_input)

        cmd_world = ZERO6
        if docked is not None:
            if cfg.condition is Condition.FORCE_FEEDBACK:
                # The arm's own actuation saturates at its envelope; injected
                # loads model external pulls on the joint and bypass it.
                spec = docked.cfg.spec
                limits = spec.max_force + spec.max_torque
                cmd_world = tuple(min(hi, max(-hi, v)) for v, hi in zip(filtered, limits))
            cmd_world = tuple(c + l for c, l in
                              zip(cmd_world, cfg.sample_injected_load(t)))

        support = {}
        for body in self.world.bodies:
            if body.kind is not BodyKind.DYNAMIC:
                continue
            total = 0.0
            for imp in impulses:
                if imp.hand_collider is not None and imp.body_b == body.name:
                    total += imp.magnitude / dt * imp.normal[1]
            support[body.name] = float(total)

        lifecycle = cfg.condition is not Condition.FREE
        if lifecycle:
            predicted = predict_position(plate_pos, plate_vel,
                                         cfg.dock.interception_horizon_s)
            triggers = [u.trigger_box.contains(predicted) for u in self.units]
            winner = self._winner(t, predicted, triggers)
        tool_offset = cfg.dock.tool_offset
        arms_rec = []
        for i, u in enumerate(self.units):
            transmitted, slip, follow = ZERO6, False, None
            if lifecycle:
                transmitted, slip, follow = self._lifecycle(
                    u, triggers[i], u is winner, t, plate, cmd_world, events)
            target = self._control(u, follow, plate, cmd_world)
            pose = u.state.pose
            if u.tool_pose is None or u.tool_pose[0] is not pose:
                u.tool_pose = (pose, pose.compose(tool_offset))
            arms_rec.append({
                "name": u.cfg.name,
                "state": u.dock_state.value,
                "pos": list(pose.translation),
                "quat": list(pose.rotation),
                "target": list(target.translation),
                "rendered": list(transmitted),
                "slip": slip,
                "clamped": u.state.clamped,
                "tool_dist": u.tool_pose[1].translation_distance_to(plate_truth),
                "magnet": u.magnet.effective,
            })
        events.extend(self.arm_target_events)

        self.log.append({
            "tick": tick,
            "t": t,
            "dt": dt,
            "events": events,
            "wrist": list(wrist.translation),
            "flex": list(hand.flex),
            "stops": list(self.glove_cmd.stop_angle),
            "resist": list(hand.resist_torques),
            "sensor_clamps": sum(hand.clamp_flags),
            "cmd_wrench": list(cmd_world),
            "net_force": list(routed.net_force),
            "net_torque": list(routed.net_torque),
            "residual": list(routed.residual),
            "paired": routed.paired_magnitude,
            "contacts": routed.hand_contact_count,
            "support": support,
            "docked_arm": docked.cfg.name if docked else None,
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
    attaches = [(r["t"], e) for r in log.records for e in r["events"]
                if e.startswith("attach:")]
    releases = [(r["t"], e) for r in log.records for e in r["events"]
                if e.startswith("release:")]
    max_rendered = 0.0
    for r in log.records:
        for arm in r["arms"]:
            f = arm["rendered"][:3]
            max_rendered = max(max_rendered, math.sqrt(sum(x * x for x in f)))
    return {
        "scenario": log.header["scenario"],
        "condition": log.header["condition"],
        "ticks": len(log.records),
        "attach_events": attaches,
        "release_events": releases,
        "max_rendered_force_n": max_rendered,
    }
