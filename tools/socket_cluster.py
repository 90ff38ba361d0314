#!/usr/bin/env python
"""Run WEBDIS query-servers as separate OS processes over real sockets.

The in-process asyncio backend (``repro.net.aio``) already uses real TCP,
but every site still shares one interpreter.  This runner completes the
picture: each query-server runs in its *own process*, speaking the wire
codec to the user-site client over loopback TCP — crash faults become
``SIGKILL`` against a live process, and recovery means a respawned process
re-binding its ports.

Demo (spawns one worker per site, submits the seed's query, prints rows)::

    PYTHONPATH=src python tools/socket_cluster.py demo --seed 3
    PYTHONPATH=src python tools/socket_cluster.py demo --seed 3 \\
        --kill s0.example@0.3@1.0      # SIGKILL at 0.3s, respawn at 1.0s

Workers are started internally as::

    python tools/socket_cluster.py serve --seed 3 --site s0.example

Every process derives the same deterministic web from ``--seed`` and the
same :class:`repro.net.aio.StaticPortMap` from the sorted site list, so
there is no registry to coordinate: site *i* owns one real port,
``--first-base`` + *i*, that carries every logical port it serves (its
daemon port; the user-site's per-query result ports, however many), and a
respawned worker re-binds exactly the port its predecessor held.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.client import QueryStatus, UserSiteClient  # noqa: E402
from repro.core.config import EngineConfig  # noqa: E402
from repro.core.engine import DEFAULT_USER_SITE  # noqa: E402
from repro.core.server import QueryServer  # noqa: E402
from repro.core.supervisor import QuerySupervisor, RecoveryPolicy  # noqa: E402
from repro.core.trace import Tracer  # noqa: E402
from repro.disql.translate import compile_disql  # noqa: E402
from repro.net.aio import AsyncioTransport, LoopClock, StaticPortMap  # noqa: E402
from repro.net.reliable import RetryPolicy  # noqa: E402
from repro.net.stats import TrafficStats  # noqa: E402
from repro.testing.generators import build_web, generate_case, query_text  # noqa: E402

RETRY = RetryPolicy(max_attempts=8, base_delay=0.2, multiplier=1.7, max_delay=2.0,
                    jitter=0.3, seed=0)
POLICY = RecoveryPolicy(quiet_timeout=2.0, max_recoveries=5,
                        backoff_multiplier=1.6, deadline=60.0)


def cluster_config(seed: int) -> EngineConfig:
    return EngineConfig(transport="asyncio", retry_policy=RetryPolicy(
        max_attempts=RETRY.max_attempts, base_delay=RETRY.base_delay,
        multiplier=RETRY.multiplier, max_delay=RETRY.max_delay,
        jitter=RETRY.jitter, seed=seed,
    ))


def cluster_sites(seed: int):
    """(web, all site names incl. user site) — identical in every process."""
    web = build_web(generate_case(seed))
    return web, sorted(web.site_names) + [DEFAULT_USER_SITE]


def serve(args: argparse.Namespace) -> int:
    """Worker: host one site's query-server until killed."""

    async def main() -> None:
        web, sites = cluster_sites(args.seed)
        transport = AsyncioTransport(
            LoopClock(), TrafficStats(), local_sites={args.site},
            port_map=StaticPortMap(sites, first_base=args.first_base),
        )
        for site in sites:
            transport.register_site(site)
        QueryServer(
            args.site, web, transport, transport.clock,
            cluster_config(args.seed), transport.stats, Tracer(enabled=False),
        )
        print(f"[{args.site}] serving on static port {transport.port_map.lookup(args.site)}",
              flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        await stop.wait()
        await transport.aclose()

    asyncio.run(main())
    return 0


def parse_kills(texts: list[str]) -> list[tuple[str, float, float | None]]:
    """``site@kill_at[@restart_at]`` -> (site, kill_at, restart_at)."""
    kills = []
    for text in texts:
        parts = text.split("@")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad --kill spec {text!r}; want site@at[@restart]")
        kills.append((parts[0], float(parts[1]),
                      float(parts[2]) if len(parts) == 3 else None))
    return kills


def demo(args: argparse.Namespace) -> int:
    """Coordinator: spawn workers, run the seed's query, print the rows."""

    def spawn(site: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, __file__, "serve", "--seed", str(args.seed),
             "--site", site, "--first-base", str(args.first_base)],
        )

    async def main() -> int:
        web, sites = cluster_sites(args.seed)
        server_sites = sorted(web.site_names)
        workers = {site: spawn(site) for site in server_sites}
        kills = parse_kills(args.kill or [])
        try:
            transport = AsyncioTransport(
                LoopClock(), TrafficStats(), local_sites={DEFAULT_USER_SITE},
                port_map=StaticPortMap(sites, first_base=args.first_base),
            )
            for site in sites:
                transport.register_site(site)
            config = cluster_config(args.seed)
            client = UserSiteClient(
                DEFAULT_USER_SITE, transport, transport.clock, transport.stats,
                Tracer(enabled=False), config,
            )
            supervisor = QuerySupervisor(client, POLICY)
            finished = asyncio.get_running_loop().create_future()
            client.on_terminal = lambda handle: finished.set_result(None)
            handle = client.submit(compile_disql(query_text(generate_case(args.seed))))
            supervisor.supervise(handle)

            clock = transport.clock
            for site, kill_at, restart_at in kills:
                if site not in workers:
                    raise SystemExit(f"--kill names unknown site {site!r}")

                def do_kill(site=site):
                    print(f"[demo] SIGKILL {site} at t={clock.now:.2f}", flush=True)
                    workers[site].kill()

                def do_restart(site=site):
                    print(f"[demo] respawn {site} at t={clock.now:.2f}", flush=True)
                    workers[site] = spawn(site)

                clock.schedule_at(kill_at, do_kill)
                if restart_at is not None:
                    clock.schedule_at(restart_at, do_restart)

            try:
                await asyncio.wait_for(finished, args.timeout)
            except asyncio.TimeoutError:
                pass  # reported below: the status is still RUNNING
            print(f"[demo] status={handle.status.value} rows={len(handle.results)} "
                  f"epoch={handle.recovery_epoch} t={clock.now:.2f}s", flush=True)
            print(handle.display_table())
            coverage = supervisor.coverage(handle)
            print(f"[demo] {coverage.summary()}")
            await transport.aclose()
            return 0 if handle.status is not QueryStatus.RUNNING else 1
        finally:
            for worker in workers.values():
                if worker.poll() is None:
                    worker.terminate()
            for worker in workers.values():
                try:
                    worker.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    worker.kill()

    return asyncio.run(main())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    sub = parser.add_subparsers(dest="command", required=True)

    serve_parser = sub.add_parser("serve", help="host one site's query-server")
    serve_parser.add_argument("--seed", type=int, required=True)
    serve_parser.add_argument("--site", required=True)
    serve_parser.add_argument("--first-base", type=int, default=20000)

    demo_parser = sub.add_parser("demo", help="spawn workers and run one query")
    demo_parser.add_argument("--seed", type=int, default=3)
    demo_parser.add_argument("--first-base", type=int, default=20000)
    demo_parser.add_argument("--timeout", type=float, default=30.0)
    demo_parser.add_argument(
        "--kill", action="append", metavar="SITE@AT[@RESTART]",
        help="SIGKILL a worker at AT seconds (respawn at RESTART); repeatable",
    )

    args = parser.parse_args(argv)
    if args.command == "serve":
        return serve(args)
    return demo(args)


if __name__ == "__main__":
    raise SystemExit(main())
