"""Byzantine leader failover: the heterogeneous remote leader change at work.

At t=3s the leader of cluster 0 turns Byzantine in the sneakiest way the
paper considers (E4.3): it keeps behaving correctly *inside* its cluster but
silently stops sending the inter-cluster broadcast, so only remote clusters
can notice.  The attack is one declarative ``byzantine_leader`` event on the
scenario; the remote cluster's replicas time out, gather a local quorum of
complaints, send a remote complaint carrying ``2f+1`` signatures, and force
cluster 0 to rotate its leader — after which throughput recovers.

Run with::

    python examples/byzantine_failover.py
"""

from __future__ import annotations

from repro import Scenario


def main() -> None:
    deployment = (
        Scenario("byzantine_failover")
        .clusters(4, 7)
        .engine("bftsmart")
        .timeouts(2.0)
        .config(retry_timeout=2.0)
        .threads(12)
        .seed(13)
        .byzantine_leader(0, at=3.0)
        .build()
    )
    bad_leader = deployment.leader_of(0).process_id

    metrics = deployment.run(duration=12.0, warmup=0.0)

    print("Byzantine failover example — silent leader detected by remote cluster")
    print(f"  Byzantine leader: {bad_leader} (silent towards remote clusters from t=3s)")
    for start, value in metrics.throughput_timeseries(bucket=1.0, until=12.0):
        marker = "   <- leader turns Byzantine" if start == 3.0 else ""
        print(f"  t={start:4.0f}s  {value:8.0f} ops/s{marker}")

    observer = deployment.replicas["c0/r1"]
    print(f"  cluster 0 leader after recovery: {observer.leader} (timestamp {observer.leader_ts})")
    remote_observer = deployment.replicas["c1/r0"]
    print(f"  rounds executed by the remote cluster: {remote_observer.execution.executed_rounds}")


if __name__ == "__main__":
    main()
