"""The benchmark workloads, each driven through the library's public API.

Every workload builds all of its inputs from the workload seed, times two
kinds of operation and checks every result it times:

* ``write`` operations change model state (a training step, a cold runner
  call, a fleet fit);
* ``read`` operations only read it (a prediction batch, a warm runner replay,
  a fleet evaluation).

A :class:`Session` owns the clock, the samples and the failure count.  With a
tracer attached it also switches the tracer on and off: set-up and one fixed
plan of operations are traced, while an untraced stretch of the same
operations gives the tracing overhead.
"""
from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.experiments.common import ExperimentScale, generate_dataset, prepare_split
from repro.experiments.fig3a_learning_curves import run_fig3a
from repro.experiments.pipeline import PipelineOptions
from repro.dataset.cache import load_dataset
from repro.fleet import FleetConfig, FleetTrainer
from repro.fleet.fleet import shard_indices
from repro.nn.metrics import root_mean_squared_error
from repro.split import ExperimentConfig, ModelConfig, TrainingConfig
from repro.split.normalization import PowerNormalizer
from repro.split.protocol import SplitTrainingProtocol
from repro.split.trainer import normalized_training_inputs

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Largest distance (dB) between a run's ``val_rmse_db`` and the value
#: recorded for its seed in ``reference.json``.  Far above the drift a
#: reordered float sum causes, far below what a wrong kernel produces.
REFERENCE_TOLERANCE_DB = 0.01

#: Any seed: the final validation RMSE must be finite and inside this range.
PLAUSIBLE_RMSE_DB = (0.5, 20.0)

_REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

class OperationFailed(RuntimeError):
    """A timed operation raised; the run stops measuring."""


@dataclass
class Session:
    """Clock, samples and checks of one benchmark run."""

    seconds: float
    tracer: Optional[object] = None
    setup_s: List[float] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(
        default_factory=lambda: {"write": [], "read": []}
    )
    traced_samples: Dict[str, List[float]] = field(
        default_factory=lambda: {"write": [], "read": []}
    )
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    results: Dict[str, float] = field(default_factory=dict)
    traced: bool = False
    _deadline: float = 0.0

    # -- tracing -----------------------------------------------------------------------
    def set_traced(self, on: bool) -> None:
        if self.tracer is None or on == self.traced:
            return
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        self.traced = on

    # -- set-up and timed operations ----------------------------------------------------
    def setup(self, build: Callable[[], object]) -> object:
        """Run ``build`` :data:`SETUP_REPEATS` times, timing each; keep the last."""
        self.set_traced(True)
        built = None
        for _ in range(SETUP_REPEATS):
            built = None  # release the previous copy before building the next
            start = time.perf_counter()
            built = build()
            self.setup_s.append(time.perf_counter() - start)
        self.set_traced(False)
        return built

    def start_clock(self, seconds: float) -> None:
        self._deadline = time.perf_counter() + seconds

    def time_left(self) -> bool:
        return time.perf_counter() < self._deadline

    def op(self, kind: str, fn: Callable[[], object], check: Callable[[object], Optional[str]]):
        """Time one operation and check its result; failures are counted."""
        if self.traced:
            self.tracer.begin_op(kind)
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            self.failures.append(f"{kind} #{self.attempted} raised: {traceback.format_exc()}")
            raise OperationFailed(str(exc)) from exc
        elapsed_ms = (time.perf_counter() - start) * 1e3
        (self.traced_samples if self.traced else self.samples)[kind].append(elapsed_ms)
        problem = check(result)
        if problem is not None:
            self.failures.append(f"{kind} #{self.attempted}: {problem}")
        return result

    def drive(self, cycle: Callable[[], None]) -> None:
        """Repeat ``cycle`` for the run's seconds (at least once).

        With a tracer the untraced stretch gets half the time and is followed
        by exactly one traced cycle, so the traced plan has a fixed size and
        its span counts repeat exactly.
        """
        self.start_clock(self.seconds / 2 if self.tracer is not None else self.seconds)
        cycle()
        while self.time_left():
            cycle()
        if self.tracer is not None:
            self.set_traced(True)
            cycle()
            self.set_traced(False)


def check_val_rmse(workload: str, size: str, seed: int, value: float) -> Optional[str]:
    """Compare a final validation RMSE with the plausible range and the reference."""
    low, high = PLAUSIBLE_RMSE_DB
    if not (math.isfinite(value) and low <= value <= high):
        return f"val_rmse_db {value!r} outside the plausible range {PLAUSIBLE_RMSE_DB}"
    reference = _REFERENCE.get(size, {}).get(workload, {}).get(str(seed))
    if reference is not None and abs(value - reference) > REFERENCE_TOLERANCE_DB:
        return (
            f"val_rmse_db {value!r} differs from the seed-{seed} reference "
            f"{reference!r} by more than {REFERENCE_TOLERANCE_DB} dB"
        )
    return None


# -- paper_step -------------------------------------------------------------------------

PAPER_STEP_SIZES = {
    # image side, dataset samples, batch B, eval windows, steps per episode
    "full": dict(image=40, samples=1040, batch=64, eval_windows=256, steps=6),
    "smoke": dict(image=12, samples=300, batch=8, eval_windows=32, steps=2),
}


def paper_step(session: Session, seed: int, size: str) -> None:
    """Single UE at the paper geometry: blocks of training steps and predicts.

    One episode restores the protocol's initial state, runs ``steps`` seeded
    training steps, then as many predicts on the eval batch.  The first op
    of each block switches the conv buffers between the training and the
    4x larger inference geometry; the rest reuse them.  Every episode must
    reproduce the first bit for bit; the RMSE of its predicts is
    ``val_rmse_db``.
    """
    shape = PAPER_STEP_SIZES[size]
    side = shape["image"]
    model = ModelConfig(
        image_height=side, image_width=side, pooling_height=side, pooling_width=side
    )
    config = ExperimentConfig(
        model=model, training=TrainingConfig(batch_size=shape["batch"], seed=seed)
    )

    def build():
        scale = ExperimentScale(
            num_samples=shape["samples"],
            image_size=side,
            mean_interarrival_s=1.2,
            validation_windows=None,
            seed=seed,
        )
        split = prepare_split(scale, generate_dataset(scale))
        if len(split.validation) < shape["eval_windows"]:
            raise ValueError("dataset too short for the eval batch")
        protocol = SplitTrainingProtocol(config)
        normalizer = PowerNormalizer.fit(split.train.power_sequences, split.train.targets)
        images, powers, targets = normalized_training_inputs(model, normalizer, split.train)
        batch_rng = np.random.default_rng([seed, 1])
        batches = []
        for _ in range(shape["steps"]):
            indices = batch_rng.choice(len(targets), size=shape["batch"], replace=False)
            batches.append((images[indices], powers[indices], targets[indices]))
        evaluation = split.validation.subset(np.arange(shape["eval_windows"]))
        eval_images, eval_powers, _ = normalized_training_inputs(model, normalizer, evaluation)
        return dict(
            protocol=protocol,
            initial=protocol.state_dict(),
            normalizer=normalizer,
            batches=batches,
            eval_inputs=(eval_images, eval_powers),
            eval_targets_dbm=evaluation.targets,
        )

    state = session.setup(build)
    protocol: SplitTrainingProtocol = state["protocol"]
    first_losses: List[float] = []
    first_predictions: List[np.ndarray] = []

    def episode():
        protocol.load_state_dict(state["initial"])
        sim_s = 0.0
        for step, batch in enumerate(state["batches"]):
            result = session.op(
                "write",
                lambda: protocol.training_step(*batch),
                lambda r: check_step(step, r),
            )
            sim_s += result.elapsed_s
        session.results["sim_train_s"] = sim_s
        for _ in state["batches"]:
            session.op("read", lambda: protocol.predict(*state["eval_inputs"]), check_predict)

    def check_step(step, result):
        if not (result.updated and math.isfinite(result.loss)):
            return f"step {step}: updated={result.updated} loss={result.loss!r}"
        if len(first_losses) <= step:
            first_losses.append(result.loss)
        elif result.loss != first_losses[step]:
            return f"step {step}: loss {result.loss!r} != first episode {first_losses[step]!r}"
        return None

    def check_predict(predictions):
        if not np.all(np.isfinite(predictions)):
            return "non-finite predictions"
        if not first_predictions:
            first_predictions.append(predictions.copy())
            dbm = state["normalizer"].denormalize(predictions)
            rmse = root_mean_squared_error(dbm, state["eval_targets_dbm"])
            session.results["val_rmse_db"] = rmse
            return check_val_rmse("paper_step", size, seed, rmse)
        if not np.array_equal(predictions, first_predictions[0]):
            return "predictions differ from the first predict after the episode's steps"
        return None

    session.drive(episode)


# -- fig3a_fast -------------------------------------------------------------------------

#: Warm replays per cold call at least (exactly, in the traced plan).
FIG3A_MIN_REPLAYS = 60
FIG3A_SCHEMES = 5
FIG3A_REPORTED_SCHEME = "img+rf-1pixel"


def _tree_snapshot(root: Path) -> Dict[str, tuple]:
    """Every file under ``root`` with its size and modification time."""
    return {
        str(path.relative_to(root)): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _history_key(history) -> str:
    """JSON identity of a training history: records, totals, ARQ statistics."""
    communication = history.communication
    return json.dumps(
        {
            "history": history.state_dict(),
            "total_elapsed_s": history.total_elapsed_s,
            "communication": None if communication is None else communication.as_dict(),
        },
        sort_keys=True,
    )


def fig3a_fast(session: Session, seed: int, size: str, work_root: Path) -> None:
    """The fig3a runner at a reduced scale over all five schemes.

    One cycle makes a cold call against empty checkpoint, model-cache and
    dataset-cache directories, then warm replays against the filled ones.
    Every cold call must reproduce the first one's histories; every replay
    must return them too while writing nothing (every job a model-cache
    hit, the dataset a cache hit).
    """
    base = ExperimentScale.fast() if size == "full" else ExperimentScale.smoke()
    scale = base.with_seed(seed)
    dataset = session.setup(lambda: generate_dataset(scale))
    first_keys: Dict[str, str] = {}

    def check_cold(result, work: Path):
        if len(result.histories) != FIG3A_SCHEMES:
            return f"cold call trained {len(result.histories)} schemes"
        for name, history in result.histories.items():
            if not history.records or not all(
                math.isfinite(r.validation_rmse_db) for r in history.records
            ):
                return f"cold call: scheme {name} has a non-finite learning curve"
        keys = {name: _history_key(h) for name, h in result.histories.items()}
        if first_keys and keys != first_keys:
            return "cold call histories differ from the first cold call's"
        first_keys.update(keys)
        cached = sorted((work / "datasets").glob("*.npz"))
        if len(cached) != 1:
            return f"cold call left {len(cached)} dataset cache entries"
        stored = load_dataset(cached[0])
        if not (
            np.array_equal(stored.images, dataset.images)
            and np.array_equal(stored.powers_dbm, dataset.powers_dbm)
        ):
            return "cached dataset differs from the seed's generated dataset"
        models = len(list((work / "models").glob("*.npz")))
        if models != FIG3A_SCHEMES:
            return f"cold call left {models} model cache entries"
        history = result.histories[FIG3A_REPORTED_SCHEME]
        session.results["val_rmse_db"] = history.final_rmse_db
        session.results["sim_train_s"] = history.total_elapsed_s
        return check_val_rmse("fig3a_fast", size, seed, history.final_rmse_db)

    def check_replay(result, snapshot, work: Path):
        keys = {name: _history_key(h) for name, h in result.histories.items()}
        if keys != first_keys:
            return "warm replay histories differ from the cold call's"
        if _tree_snapshot(work) != snapshot:
            return "warm replay wrote to the cache directories (a cache miss)"
        return None

    def cycle():
        work = Path(tempfile.mkdtemp(prefix="fig3a-", dir=work_root))
        try:
            options = PipelineOptions(
                checkpoint_dir=str(work / "checkpoints"),
                model_cache_dir=str(work / "models"),
                dataset_cache_dir=str(work / "datasets"),
            )
            session.op(
                "write",
                lambda: run_fig3a(scale, options=options),
                lambda result: check_cold(result, work),
            )
            snapshot = _tree_snapshot(work)
            # Replays fill what the cold call leaves of the clock, and never
            # fewer than FIG3A_MIN_REPLAYS.
            replays = 0
            while replays < FIG3A_MIN_REPLAYS or session.time_left():
                session.op(
                    "read",
                    lambda: run_fig3a(scale, options=options),
                    lambda result: check_replay(result, snapshot, work),
                )
                replays += 1
        finally:
            shutil.rmtree(work, ignore_errors=True)

    session.drive(cycle)


# -- fleet_n1000 ------------------------------------------------------------------------

FLEET_SIZES = {
    # UEs, dataset samples, image side, rounds, evaluations per fit
    "full": dict(ues=1000, samples=2720, image=8, rounds=5, evaluations=20),
    "smoke": dict(ues=8, samples=300, image=8, rounds=2, evaluations=2),
}
FLEET_MEMBER_BATCH = 2
#: Two full inference batches (TrainingConfig.eval_batch_size = 256 windows),
#: so evaluation reuses its conv buffers instead of reallocating them for a
#: short last batch.
FLEET_VALIDATION_WINDOWS = 512


def fleet_n1000(session: Session, seed: int, size: str) -> None:
    """``FleetTrainer.fit`` of a fixed round budget, then repeated evaluations.

    Parallel-average mode, batched backend, round-robin medium, uint8 codec.
    Every shard holds a full member batch, so every round takes the batched
    path.  Each fit starts from the same initial fleet state and must
    reproduce the first fit's history bit for bit; each evaluation must
    equal the fit's final validation RMSE.
    """
    shape = FLEET_SIZES[size]
    side = shape["image"]
    model = ModelConfig(
        image_height=side,
        image_width=side,
        pooling_height=side,
        pooling_width=side,
        cnn_channels=(2,),
        rnn_hidden_size=8,
        codec="uint8",
    )
    config = ExperimentConfig(
        model=model, training=TrainingConfig(batch_size=FLEET_MEMBER_BATCH, seed=seed)
    )
    fleet_config = FleetConfig(
        num_ues=shape["ues"],
        mode="parallel_average",
        scheduler="round_robin",
        backend="batched",
        max_rounds=shape["rounds"],
    )

    def build():
        scale = ExperimentScale(
            num_samples=shape["samples"],
            image_size=side,
            mean_interarrival_s=1.2,
            validation_windows=FLEET_VALIDATION_WINDOWS,
            seed=seed,
        )
        split = prepare_split(scale, generate_dataset(scale))
        shards = shard_indices(len(split.train), shape["ues"])
        if min(len(shard) for shard in shards) < FLEET_MEMBER_BATCH:
            raise ValueError("a shard holds less than one member batch")
        trainer = FleetTrainer(config, fleet_config)
        return dict(split=split, trainer=trainer, initial=trainer.state_dict())

    state = session.setup(build)
    trainer: FleetTrainer = state["trainer"]
    train, validation = state["split"].train, state["split"].validation
    first_fit: List[str] = []

    def check_fit(history):
        records = history.records
        if len(records) != shape["rounds"] or not all(
            math.isfinite(r.validation_rmse_db) and math.isfinite(r.train_loss)
            for r in records
        ):
            return f"fit history has {len(records)} rounds or non-finite values"
        key = json.dumps(
            [history.state_dict(), history.total_elapsed_s, history.medium_busy_s]
        )
        if not first_fit:
            first_fit.append(key)
        elif key != first_fit[0]:
            return "fit history differs from the first fit's"
        session.results["val_rmse_db"] = history.final_rmse_db
        session.results["sim_train_s"] = history.total_elapsed_s
        session.results["medium_occupancy"] = history.medium_occupancy
        return check_val_rmse("fleet_n1000", size, seed, history.final_rmse_db)

    def cycle():
        trainer.load_state_dict(state["initial"])
        history = session.op("write", lambda: trainer.fit(train, validation), check_fit)
        for _ in range(shape["evaluations"]):
            session.op(
                "read",
                lambda: trainer.evaluate(validation),
                lambda rmse: None
                if rmse == history.final_rmse_db
                else f"evaluate {rmse!r} != fit's final RMSE {history.final_rmse_db!r}",
            )

    session.drive(cycle)
