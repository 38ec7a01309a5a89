"""Knowledge integration: DACE as a pre-trained encoder for MSCN.

The paper's cold-start experiment (Fig 9): a fresh within-database model
(MSCN) has almost no training data on a new database.  Feeding it the
64-dim plan context ``w_E`` from a frozen, pre-trained DACE (eq. 9) makes
it competitive with only a handful of training queries.  The MSCN is built
with a ``context_dim`` of DACE's embedding width, and ``DACEIntegration``
supplies the embeddings at fit and predict time.

Run:  python examples/pretrained_encoder_cold_start.py
"""

from repro.baselines import DACEIntegration, MSCNModel, PostgresCostBaseline
from repro.catalog import load_database
from repro.core import DACE, TrainingConfig
from repro.metrics import format_table, qerror_summary
from repro.workloads import build_workload3, workload1

TRAIN_DBS = ["airline", "credit", "walmart", "baseball", "financial",
             "movielens"]


def main() -> None:
    print("Collecting pre-training workloads (no IMDB) ...")
    w1 = workload1(queries_per_db=200, database_names=TRAIN_DBS)
    print("Pre-training DACE ...")
    dace = DACE(training=TrainingConfig(epochs=30, batch_size=64), seed=0)
    dace.fit(list(w1.values()))

    print("Building the MSCN benchmark on IMDB ...")
    w3 = build_workload3(
        train_queries=1200, synthetic_queries=100, scale_queries=80,
        job_light_queries=50,
    )
    imdb = load_database("imdb")
    test = w3.job_light
    postgres = PostgresCostBaseline().fit(w3.train)
    pg_median = qerror_summary(
        postgres.predict_ms(test), test.latencies()
    ).median

    rows = []
    for count in (50, 200, 800):
        subset = w3.train.subset(count, seed=0)
        plain = MSCNModel(imdb, epochs=25, seed=0).fit(subset)
        hybrid = DACEIntegration(
            MSCNModel(imdb, context_dim=dace.embedding_dim, epochs=25,
                      seed=0),
            dace,
        ).fit(subset)
        plain_summary = qerror_summary(
            plain.predict_ms(test), test.latencies()
        )
        hybrid_summary = qerror_summary(
            hybrid.predict_ms(test), test.latencies()
        )
        rows.append([count, plain_summary.median, hybrid_summary.median])

    print("\nJOB-light median q-error by training-set size:")
    print(format_table(
        ["training queries", "MSCN", "DACE-MSCN"], rows,
    ))
    print(f"(PostgreSQL linear-corrected cost: median {pg_median:.2f})")


if __name__ == "__main__":
    main()
