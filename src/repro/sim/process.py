"""Base class for simulated processes (replicas, clients, joiners).

A :class:`Process` owns an identifier, a reference to the simulator, and a
mailbox-style ``receive`` entry point invoked by the network when a message is
delivered.  Subclasses implement ``on_message`` and may override lifecycle
hooks (``on_start``, ``on_crash``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.sim.simulator import Simulator, Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.network import Network


class Process:
    """A named participant in a simulation.

    Attributes:
        process_id: Globally unique identifier (e.g. ``"c0/r2"``).
        simulator: The simulation kernel this process is attached to.
        network: Set by :meth:`attach` when the process joins a network.
        crashed: Crashed processes silently drop every delivery.
    """

    def __init__(self, process_id: str, simulator: Simulator) -> None:
        self.process_id = process_id
        self.simulator = simulator
        self.network: Optional["Network"] = None
        self.crashed = False
        #: Gray-failure state: CPU multiplier (>1 is a slow replica) and the
        #: local timer-clock rate (<1 fires timers early).  Both default to
        #: 1.0 and multiply exactly, so healthy runs are unchanged.
        self.cpu_factor = 1.0
        self.timer_rate = 1.0
        #: Timers created through :meth:`new_timer`, kept so a later
        #: clock-skew fault reaches timers armed before it fired.
        self._timers: list = []
        self._started = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def attach(self, network: "Network") -> None:
        """Bind this process to a network (called by ``Network.register``)."""
        self.network = network

    def start(self) -> None:
        """Run ``on_start`` exactly once; called by the deployment builder."""
        if self._started:
            return
        self._started = True
        self.on_start()

    def crash(self) -> None:
        """Crash-stop the process: it no longer receives or sends."""
        if not self.crashed:
            self.crashed = True
            self.on_crash()

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        """Hook invoked when the process starts (default: nothing)."""

    def on_crash(self) -> None:
        """Hook invoked when the process crashes (default: nothing)."""

    def on_message(self, sender: str, message: Any) -> None:
        """Handle a delivered message.  Subclasses override this."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Conveniences
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.simulator.now

    def after(self, delay: float, callback, label: str = "") -> None:
        """Schedule a callback guarded against post-crash execution."""

        def _guarded() -> None:
            if not self.crashed:
                callback()

        self.simulator.schedule(delay, _guarded, label=label or f"{self.process_id}:after")

    def new_timer(self, duration: float, callback, name: str = "") -> Timer:
        """Create a timer whose callback is suppressed once crashed."""

        def _guarded() -> None:
            if not self.crashed:
                callback()

        timer = self.simulator.timer(duration, _guarded, name=f"{self.process_id}:{name}")
        timer.rate = self.timer_rate
        self._timers.append(timer)
        return timer

    # ------------------------------------------------------------------ #
    # Gray-failure knobs (fault injectors call these at fire time)
    # ------------------------------------------------------------------ #
    def set_cpu_factor(self, factor: float) -> None:
        """Scale this process's CPU service times (``1.0`` restores health).

        Applies to the network port's processing/receive costs and to any
        subclass-specific CPU work (e.g. replica execution delay) that reads
        ``self.cpu_factor``.
        """
        if factor <= 0.0:
            raise ValueError(f"cpu_factor must be positive, got {factor}")
        self.cpu_factor = factor
        network = self.network
        if network is not None:
            port = network.ports.get(self.process_id)
            if port is not None and port.process is self:
                port.cpu_factor = factor

    def set_timer_rate(self, rate: float) -> None:
        """Skew this process's timer clock.

        ``rate < 1`` is a fast local clock (timers fire early); ``rate > 1``
        is a slow clock.  Affects timers armed after the call; already-armed
        deadlines run to their original expiry.
        """
        if rate <= 0.0:
            raise ValueError(f"timer_rate must be positive, got {rate}")
        self.timer_rate = rate
        for timer in self._timers:
            timer.rate = rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.process_id} at t={self.now:.3f}>"


__all__ = ["Process"]
