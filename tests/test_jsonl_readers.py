"""The JSON-lines readers (errors.read_columns) against the three per-file loops they
replaced: on seeded corpora of mutated lines, each reader gives bit-identical arrays or
the same error message, read in blocks of the default size and of two lines. The
references below are the former readers, kept verbatim but for the annotation reader's
messages, which now take the form the other two give. Then each reader's column-wise read
against its row-by-row read (errors.by_columns left to the row functions), on long files
with one fault deep inside and on valid files of edge values, a check that clean files do
not fall back, and one that a fault falls back for its own block alone. Last, the pair and
annotation reads, whose column-wise path parses with orjson, against the same reads parsed
by json alone: on floats, big ints, what orjson rejects and lines nested deep."""

import json
import math
import random
import re
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
import orjson
import pytest

from posefocal import cli, errors, sampling
from posefocal.errors import DomainError, reading
from posefocal.geometry import BBox, ModelPoints, ParamState, PoseBatch, Rotation, row_dot
from posefocal.sampling import load_annotations

from test_metrics import EvalPair

# ---------------------------------------------------------------------------
# The former readers
# ---------------------------------------------------------------------------

OLD_READ_ERRORS = (OSError, KeyError, TypeError, ValueError, AttributeError)


@contextmanager
def old_reading(where: str):
    try:
        yield
    except DomainError as exc:
        if str(exc).startswith(where):  # named by a nested _reading
            raise
        raise type(exc)(f"{where}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{where}: malformed JSON: {exc}") from exc
    except KeyError as exc:
        raise DomainError(f"{where}: missing field {exc}") from exc
    except (OSError, TypeError, ValueError, AttributeError) as exc:
        raise DomainError(f"{where}: {exc}") from exc


def old_load_targets(path, n: int) -> PoseBatch:
    states = []
    with old_reading(path), open(path) as fh:
        for i, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    doc = json.loads(line)
                    if "manifest" not in doc:
                        states.append(ParamState.from_dict(doc))
                except OLD_READ_ERRORS as exc:
                    with old_reading(f"{path} line {i}"):
                        raise exc
    if len(states) < n:
        raise DomainError(f"target file has {len(states)} poses, need {n}")
    return PoseBatch.from_states(states[:n])


def old_load_pairs(path) -> list:
    point_sets = {}
    pairs = []
    with open(path) as fh, np.errstate(over="ignore"):
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                if "manifest" in doc:
                    continue
                if "model_points" in doc and "pred" not in doc:
                    for name, pts in doc["model_points"].items():
                        point_sets[name] = ModelPoints(np.asarray(pts, dtype=float))
                    continue
                pts_field = doc["points"]
                if isinstance(pts_field, str):
                    if pts_field not in point_sets:
                        raise DomainError(
                            f"pair {len(pairs)}: unknown model-points reference "
                            f"{pts_field!r}")
                    points = point_sets[pts_field]
                else:
                    points = ModelPoints(np.asarray(pts_field, dtype=float))
                pairs.append(EvalPair(
                    pred=ParamState.from_dict(doc["pred"]),
                    gt=ParamState.from_dict(doc["gt"]),
                    points=points,
                    bbox_gt=BBox(*[float(v) for v in doc["bbox_gt"]]),
                    img_diag=float(doc["img_diag"]),
                    bbox_pred=(BBox(*[float(v) for v in doc["bbox_pred"]])
                               if doc.get("bbox_pred") is not None else None),
                ))
            except OLD_READ_ERRORS as exc:
                with old_reading(f"{path} line {i}"):
                    raise exc
    if not pairs:
        raise DomainError(f"no evaluation pairs in {path}")
    return pairs


@dataclass(frozen=True)
class OldAnnotationRecord:
    rotation: Rotation
    translation: np.ndarray
    focal: float
    img_wh: tuple
    bbox: BBox

    def __post_init__(self):
        ParamState(self.rotation, self.translation, self.focal)

    @classmethod
    def from_dict(cls, d: dict) -> "OldAnnotationRecord":
        return cls(
            rotation=Rotation(np.asarray(d["quat_wxyz"], dtype=float)),
            translation=np.asarray(d["t_m"], dtype=float),
            focal=float(d["f_px"]),
            img_wh=(float(d["img_wh"][0]), float(d["img_wh"][1])),
            bbox=BBox(*[float(v) for v in d["bbox"]]),
        )


def old_load_annotations(path) -> list:
    records = []
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(OldAnnotationRecord.from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                raise DomainError(f"{path} line {i}: "
                                  f"{'missing field ' * isinstance(exc, KeyError)}"
                                  f"{'malformed JSON: ' * isinstance(exc, json.JSONDecodeError)}"
                                  f"{exc}") from exc
    return records


# ---------------------------------------------------------------------------
# Seeded corpora of mutated lines
# ---------------------------------------------------------------------------

HUGE = "<1e400>"  # written as the JSON number 1e400, which reads as inf (see dumps)
ODD_VALUES = ["a", "1.5", "", None, True, False, {}, {"a": 1}, [], [1, "a"], [[1, 2]],
              0, -1, 1, 1.5, -0.0, 1e-300, 1e200, -1e200, math.nan, math.inf, -math.inf,
              [0, 0, 0, 0], [1e200, 0, 0, 0], [1e155, 1e155, 1e155, 1e155], [1e-200, 0, 0, 0],
              [math.nan, 0, 0, 0], [1, 0, 0], [1, 0, 0, 0, 0], [0.1, 0.2], [0, 0, 1],
              [0, 0, 60, 80], [60, 80, 0, 0], [640, 480], [640.0, 480, 7], "64", "cube",
              "missing", {"manifest": {}}, 2**70, HUGE, [0.5, 2**70, 0, 0], [0, 0, 2**70],
              [HUGE, 0, 0, 0], [0.1, HUGE, 2], [0, math.inf, 1], [0.5, True, 0, 0],
              [0.1, 0.2, False], {"0": 1, "1": 0, "2": 0, "3": 0}, {"x": 0, "y": 0, "z": 1}]
ODD_LINES = ["", "   ", "\t", "5", "null", "true", '"manifest"', '"text"', "[1, 2]", "[]",
             "{}", "{broken", '{"quat_wxyz": [1, 0, 0, 0],', '{"manifest": {"seed": 0}}',
             '{"manifest": null}', "NaN", "Infinity", "5 6", "[1, 2]]", '{"manifest": {}}x',
             '{"manifest": {}} ', ' {"manifest": {}}', '\ufeff{"manifest": {}}']


def dumps(doc) -> str:
    """json.dumps of ``doc``, each string "<text>" in it (HUGE, say) written as the bare text."""
    return re.sub(r'"<([^"<>]*)>"', r"\1", json.dumps(doc))


def file_text(lines, rng) -> str:
    """``lines`` as a file, in 40 % of files in a form at a parser's edges: CRLF endings,
    spaces or tabs after a line, a space before one, a BOM on line 1, two values on one
    line, or no newline after the last line."""
    form = rng.randrange(1, 7) if rng.random() < 0.4 else 0
    i = rng.randrange(len(lines))
    if form == 1:
        lines[i] += rng.choice([" ", "\t", " \t "])
    elif form == 2:
        lines[i] = " " + lines[i]
    elif form == 3:
        lines[0] = "\ufeff" + lines[0]
    elif form == 4:
        lines[i] += rng.choice(["", " "]) + lines[rng.randrange(len(lines))]
    end = "\r\n" if form == 5 else "\n"
    return end.join(lines) + ("" if form == 6 else end)


def rand_quat(rng):
    return [round(rng.gauss(0, 1), 6) for _ in range(4)]


def rand_state(rng, focal_key):
    return {"quat_wxyz": rand_quat(rng),
            "t_m": [rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(0.5, 3.0)],
            focal_key: rng.uniform(200.0, 1000.0)}


def rand_box(rng):
    x, y = rng.uniform(0, 300), rng.uniform(0, 200)
    return [x, y, x + rng.uniform(1, 300), y + rng.uniform(1, 200)]


def target_doc(rng):
    return rand_state(rng, "focal_px")


def annotation_doc(rng):
    wh = rng.choice([[640, 480], [640.0, 480.0], [1280, 720.5]])
    return {**rand_state(rng, "f_px"), "img_wh": wh, "bbox": rand_box(rng)}


def pair_doc(rng):
    doc = {"pred": target_doc(rng), "gt": target_doc(rng),
           "points": rng.choice(["cube", [[0.1, 0, 0], [0, 0.1, 0]]]),
           "bbox_gt": rand_box(rng), "img_diag": rng.uniform(100, 1000)}
    choice = rng.random()
    if choice < 0.4:
        doc["bbox_pred"] = rand_box(rng)
    elif choice < 0.6:
        doc["bbox_pred"] = None
    return doc


def header_doc(rng):
    return {"model_points": {"cube": [[rng.uniform(-0.1, 0.1) for _ in range(3)]
                                      for _ in range(4)]}}


def mutate(doc, rng):
    """``doc`` with one random change at a random depth: a key dropped, a value replaced
    by an odd one, a list cut short or grown, or a number made NaN or infinite."""
    doc = json.loads(json.dumps(doc))
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = rng.choice(keys)
        if isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.5:
            node = node[key]
            continue
        op = rng.random()
        if op < 0.2 and isinstance(node, dict):
            del node[key]
        elif op < 0.3 and isinstance(node[key], list):
            node[key] = node[key][:rng.randrange(len(node[key]) + 1)]
        elif op < 0.4 and isinstance(node[key], list):
            node[key] = node[key] + [rng.choice([0, 1.5, "a"])]
        elif op < 0.5:
            node[key] = rng.choice([math.nan, math.inf, -math.inf])
        else:
            node[key] = rng.choice(ODD_VALUES)
        return doc


def corpus(make, n_cases: int, seed: int, header=None, manifests=0.3):
    """Files of 1 to 4 valid lines with one odd line, or one line with one or two
    mutations, among them; then the manifest (in a share ``manifests`` of the files)
    and blank lines a file may hold; written in one of ``file_text``'s forms."""
    rng = random.Random(seed)
    for case in range(n_cases):
        lines = [json.dumps(make(rng)) for _ in range(rng.randint(1, 4))]
        if header is not None and rng.random() < 0.9:
            lines.insert(0, json.dumps(header(rng)))
        spot = rng.randrange(len(lines) + 1)
        if rng.random() < 0.15:
            lines.insert(spot, rng.choice(ODD_LINES))
        elif rng.random() < 0.85:
            doc = mutate(header(rng) if header is not None and rng.random() < 0.2
                         else make(rng), rng)
            if rng.random() < 0.4 and isinstance(doc, dict) and doc:  # two faults at once
                doc = mutate(doc, rng)
            lines.insert(spot, dumps(doc))
        if rng.random() < manifests:
            lines.insert(0, json.dumps({"manifest": {"seed": case}}))
        if rng.random() < 0.3:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  "]))
        yield file_text(lines, rng)


def outcome(read):
    """("ok", what ``read()`` gave) or ("error", its message), or ("traceback", ...) for an
    error the reader did not name."""
    try:
        return "ok", read()
    except DomainError as exc:
        return "error", str(exc)
    except Exception as exc:
        return "traceback", repr(exc)


def old_outcome(read):
    with warnings.catch_warnings():  # the former readers warned on an overflowing norm
        warnings.simplefilter("ignore", RuntimeWarning)
        return outcome(read)


def pose_bits(poses: PoseBatch) -> bytes:
    n = len(poses)
    return b"".join(np.asarray(a, dtype=float).reshape(n, -1).tobytes()
                    for a in (poses.quat, poses.translation, poses.focal))


def state_bits(s: ParamState) -> bytes:
    return s.rotation.quat.tobytes() + s.translation.tobytes() + np.float64(s.focal).tobytes()


def pairs_bits(pairs) -> bytes:
    return b"".join(
        state_bits(p.pred) + state_bits(p.gt) + p.points.points.tobytes()
        + np.array(p.bbox_gt.as_list() + [p.img_diag, p.gt_distance]).tobytes()
        + (b"none" if p.bbox_pred is None else np.array(p.bbox_pred.as_list()).tobytes())
        for p in pairs)


def columns_bits(pairs: dict) -> bytes:
    """``pairs_bits`` of the pair reader's columns, row by row, with the ground-truth
    distance computed as GroundTruth computes it: sqrt(t.t) of each row."""
    pred, gt = pairs["pred"], pairs["gt"]
    gt_distance = np.sqrt(row_dot(gt.translation, gt.translation))
    return b"".join(
        b"".join(np.asarray(a[i], dtype=float).tobytes() for p in (pred, gt)
                 for a in (p.quat, p.translation, p.focal))
        + pairs["points"][i].tobytes()
        + np.array([*pairs["bbox_gt"][i], pairs["img_diag"][i], gt_distance[i]]).tobytes()
        + (b"none" if np.isnan(pairs["bbox_pred"][i]).all() else pairs["bbox_pred"][i].tobytes())
        for i in range(len(gt)))


def annotation_bits(columns) -> bytes:
    poses, img_wh, bbox = columns
    return pose_bits(poses) + img_wh.tobytes() + bbox.tobytes()


def old_columns(records) -> tuple:
    return (PoseBatch(np.array([r.rotation.quat for r in records]).reshape(-1, 4),
                      np.array([r.translation for r in records]).reshape(-1, 3),
                      np.array([r.focal for r in records], dtype=float)),
            np.array([r.img_wh for r in records]).reshape(-1, 2),
            np.array([r.bbox.as_list() for r in records], dtype=float).reshape(-1, 4))


def two_numbers(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(
        type(v) in (int, float) for v in value)


def img_wh_fault(text: str):
    """The 1-based line of the first annotation whose img_wh is present but not two
    numbers, or None."""
    for i, line in enumerate(text.split("\n"), start=1):
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and "img_wh" in doc and not two_numbers(doc["img_wh"]):
            return i
    return None


N_CASES = 1500


def assert_both_outcomes(results):
    kinds = {k for k, _ in results}
    assert kinds == {"ok", "error"}, kinds  # the corpus holds both outcomes


def test_targets_match_the_former_reader(tmp_path):
    path, results = tmp_path / "targets.jsonl", []
    for text in corpus(target_doc, N_CASES, seed=1):
        path.write_text(text)
        rows = sum(1 for line in text.splitlines() if line.strip())
        n = max(rows - text.count('"manifest"'), 1)  # every target the file can hold
        new = outcome(lambda: pose_bits(cli._load_targets({"kind": "file", "path": str(path)},
                                                          n, 0)))
        old = old_outcome(lambda: pose_bits(old_load_targets(str(path), n)))
        if old[0] == "error" and old[1].startswith("target file has"):
            assert new == ("error", f"{path}: {old[1]}"), text  # now names the file
        else:
            assert new == old, text
        results.append(new)
    assert_both_outcomes(results)


def test_pairs_match_the_former_reader(tmp_path):
    path, results = tmp_path / "pairs.jsonl", []
    for text in corpus(pair_doc, N_CASES, seed=2, header=header_doc):
        path.write_text(text)
        new = outcome(lambda: columns_bits(cli._load_pairs(path)))
        assert new == old_outcome(lambda: pairs_bits(old_load_pairs(path))), text
        results.append(new)
    assert_both_outcomes(results)


def test_annotations_match_the_former_reader(tmp_path):
    """The one difference: an img_wh that is not exactly two numbers is an error,
    where the former reader took e.g. [640, 480, 7] as [640.0, 480.0] and "64" as
    [6.0, 4.0]."""
    path, results, faults = tmp_path / "ann.jsonl", [], 0
    for text in corpus(annotation_doc, N_CASES, seed=3, manifests=0.05):
        path.write_text(text)
        new = outcome(lambda: annotation_bits(load_annotations(path)))
        old = old_outcome(lambda: annotation_bits(old_columns(old_load_annotations(path))))
        line = img_wh_fault(text)
        if line is not None and (new != old or old[0] == "ok"):
            prefix = f"{path} line {line}: img_wh must be two numbers"
            assert new[0] == "error" and new[1].startswith(prefix), (text, new)
            faults += 1
        else:
            assert new == old, text
        results.append(new)
    assert_both_outcomes(results)
    assert faults > 20


def test_sample_records_match_the_former_reader(tmp_path, monkeypatch):
    """sample reads a nonparametric file's records with the same row function, and names
    a faulty record by its index, records/<i>; here the sampler hands back the poses it is
    given."""
    monkeypatch.setattr(sampling, "sample_pose_nonparametric", lambda poses, *_: poses)
    deltas = {"delta_r_rad": 0.1, "delta_x_m": 0.01, "delta_y_m": 0.01, "delta_z_m": 0.1,
              "delta_f_px": 50.0}
    where, results = str(tmp_path / "dist.json"), []
    for text in corpus(annotation_doc, N_CASES // 3, seed=4, manifests=0.05):
        records = []
        for line in text.splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:
                pass

        def new_read():
            with reading(where):
                return pose_bits(cli._draw_poses(
                    {"kind": "nonparametric", "records": records, "deltas": deltas}, 0, 0))

        def old_record(i, record):
            with old_reading(f"records/{i}"):
                return OldAnnotationRecord.from_dict(record)

        def old_read():
            with old_reading(where):
                return pose_bits(old_columns([old_record(*item) for item in enumerate(records)])[0])

        new, old = outcome(new_read), old_outcome(old_read)
        if (new != old or old[0] == "ok") and any(
                isinstance(r, dict) and "img_wh" in r and not two_numbers(r["img_wh"])
                for r in records):
            assert new[0] == "error" and "img_wh must be two numbers" in new[1], new
        else:
            assert new == old, text
        results.append(new)
    assert_both_outcomes(results)


@pytest.mark.parametrize("test", [test_targets_match_the_former_reader,
                                  test_pairs_match_the_former_reader,
                                  test_annotations_match_the_former_reader],
                         ids=["targets", "pairs", "annotations"])
def test_two_line_blocks_match_the_former_reader(tmp_path, monkeypatch, test):
    """The file readers' corpora read two lines a block, so that a read spans blocks: a
    header in one block and its pairs in the next, a pair's index after a block read row
    by row."""
    monkeypatch.setattr(errors, "READ_BLOCK", 2)
    test(tmp_path)


BIG = "9" * 400  # no float holds it


@pytest.mark.parametrize("line", [
    f'{{"points": [[0, 0, 0]], "pred": {{"quat_wxyz": [1, 0, 0, {BIG}]}}, '
    f'"quat_wxyz": [1, 0, 0, {BIG}]}}',
    "[" * 100_000 + "]" * 100_000],
                         ids=["400-digit-integer", "nested-100000-deep"])
def test_errors_the_former_readers_let_through_are_named(tmp_path, line):
    """An integer too large for a float, and a line nested past the recursion
    limit, were tracebacks in all three former readers."""
    path = tmp_path / "in.jsonl"
    path.write_text(line + "\n")
    for read, where in ((lambda p: cli._load_targets({"kind": "file", "path": str(p)}, 1, 0),
                         f"{path} line 1: "),
                        (cli._load_pairs, f"{path} line 1: "),
                        (load_annotations, f"{path} line 1: ")):
        with pytest.raises(DomainError) as caught:
            read(path)
        assert str(caught.value).startswith(where)


# ---------------------------------------------------------------------------
# The column-wise reads against the row-by-row read they fall back to
# ---------------------------------------------------------------------------

DELTAS = {"delta_r_rad": 0.1, "delta_x_m": 0.01, "delta_y_m": 0.01, "delta_z_m": 0.1,
          "delta_f_px": 50.0}


def read_targets(path, lines):
    # every target line but the one the test changed
    n = max(sum(1 for line in lines if line.strip() and "manifest" not in line) - 1, 1)
    return pose_bits(cli._load_targets({"kind": "file", "path": str(path)}, n, 0))


def parsable(lines) -> list:
    """The values of the lines that parse: sample's records of a file's lines."""
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            pass
    return records


def read_records(path, lines):
    """sample's read of a nonparametric file's records, the file's parsable lines; the
    sampler hands back the poses it is given (patched by the test)."""
    records = parsable(lines)
    with reading(str(path)):
        return pose_bits(cli._draw_poses({"kind": "nonparametric", "records": records,
                                          "deltas": DELTAS}, 0, 0))


# reader: (line maker, header maker, read(path, lines) -> bits)
READERS = {
    "targets": (target_doc, None, read_targets),
    "pairs": (pair_doc, header_doc, lambda path, _: columns_bits(cli._load_pairs(path))),
    "annotations": (annotation_doc, None,
                    lambda path, _: annotation_bits(load_annotations(path))),
    "sample-records": (annotation_doc, None, read_records),
}


def fault_name(reader, path, lines, spot) -> str:
    """How the reader names ``lines[spot]`` in an error: by its line of the file, or as one
    of sample's records, by its index among the lines that parse."""
    if reader == "sample-records":
        return f"{path}: records/{len(parsable(lines[:spot]))}"
    return f"{path} line {spot + 1}"


@pytest.fixture
def both_reads(monkeypatch, tmp_path):
    """read(reader, lines) -> (outcome of the reader on a file of ``lines``, outcome of its
    row-by-row read alone: errors.by_columns with the column-wise read left out). Blocks of
    7 rows, so that a file's columns are built from many blocks."""
    monkeypatch.setattr(sampling, "sample_pose_nonparametric", lambda poses, *_: poses)
    monkeypatch.setattr(errors, "READ_BLOCK", 7)
    path = tmp_path / "in.jsonl"

    def rows_only(columns, rows):
        with np.errstate(over="ignore"):
            return rows()

    def read(reader, lines):
        path.write_text("\n".join(lines) + "\n")
        new = outcome(lambda: READERS[reader][2](path, lines))
        with monkeypatch.context() as m:
            m.setattr(errors, "by_columns", rows_only)
            return new, outcome(lambda: READERS[reader][2](path, lines))

    read.path = path
    return read


def long_file(reader, rng):
    """50 to 300 valid lines, after a header line for pairs, and a manifest line in half
    the files."""
    make, header, _ = READERS[reader]
    lines = [json.dumps(make(rng)) for _ in range(rng.randint(50, 300))]
    if header is not None:
        lines.insert(0, json.dumps(header(rng)))
    if reader in ("targets", "pairs") and rng.random() < 0.5:
        lines.insert(0, json.dumps({"manifest": {"seed": 0}}))
    return lines


@pytest.mark.parametrize("reader", READERS)
def test_deep_fault_is_named_at_its_line(both_reads, reader):
    """Long valid files with one mutated or odd line in their second half: the column-wise
    read gives the row-by-row read's outcome, and an error names the line."""
    rng, named = random.Random(5), 0
    for _ in range(40):
        lines = long_file(reader, rng)
        spot = rng.randrange(len(lines) // 2, len(lines))
        lines[spot] = (rng.choice(ODD_LINES) if rng.random() < 0.2
                       else json.dumps(mutate(READERS[reader][0](rng), rng)))
        new, row_by_row = both_reads(reader, lines)
        assert new == row_by_row, lines[spot]
        if new[0] == "error":
            assert new[1].startswith(f"{fault_name(reader, both_reads.path, lines, spot)}: "), new
            named += 1
    assert named > 10


TINY = math.ulp(1e-12)
EDGE_VALUES = [0, 1, -1, 7, 600, 2**53 + 1, -(2**53 + 1), 2**63 - 1, 2**63 + 1025, 2**64 + 1,
               -(2**63) - 1, True, False, "600", "1.5", "-0.0", -0.0, 0.0, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e-12 - TINY, 1e-12, 1e-12 + TINY, 1e308]
# numbers that overflow a float or int64, or are not finite: one per file in some files
EDGE_TOKENS = [2**70, -(2**70), HUGE, math.nan, math.inf, -math.inf]
# quaternions whose norm is 1e-12 or one ulp either side of it, and one of a subnormal
EDGE_QUATS = [[1e-12 - TINY, 0, 0, 0], [1e-12, 0, 0, 0], [1e-12 + TINY, 0, 0, 0],
              [0, -(1e-12 - TINY), 0, 0], *([v] * 4 for v in (5e-13 - TINY / 2, 5e-13,
                                                              5e-13 + TINY / 2)),
              [5e-324, 0, 0, 0], [1, 0, 0, 0], [True, 0, 0, 0], [1e154, 1e154, 1e154, 1e154]]
# translations whose t.t is zero, subnormal, or about to overflow or past it
EDGE_TRANSLATIONS = [[0, 0, 0], [0.0, -0.0, 0.0], [5e-324, 0, 0], [1.5e-162, 0, 0],
                     [1.3e154, 0, 0], [1.35e154, 0, 0], [1e154, 1e154, 1e154], [2**600, 0, 1]]
# boxes that are all NaN, empty, one ulp wide, infinite or subnormal
EDGE_BOXES = [[math.nan] * 4, [0, 0, 0, 0], [1, 2, 1.0000000000000002, 2.0000000000000004],
              [-math.inf, -math.inf, math.inf, math.inf], [0, 0, 5e-324, 5e-324]]
# one field of every line made one shorter or longer, nested one level deeper, or a dict
RESHAPES = [lambda v: v[:-1] if isinstance(v, list) else [],
            lambda v: v + [0] if isinstance(v, list) else [v, 0], lambda v: [v],
            lambda v: dict(zip("0123", v)) if isinstance(v, list) else {"0": v}]


def numeric_paths(node, path=()):
    """The paths to the numbers (not bools) in a parsed JSON value."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [p for key, value in items for p in numeric_paths(value, (*path, key))]
    return [path] if type(node) in (int, float) else []


def set_at(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def get_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def edge_file(reader, rng):
    """A long file whose lines hold edge values: at up to three random numbers, as one
    quaternion, translation and box in half the files each, at one field of every line
    in a third of the files (an all-int or all-bool column, say), as one field of every line
    reshaped in some, as one of EDGE_TOKENS in some, and as a 400-digit integer on line
    200 in some."""
    lines = [json.loads(line) for line in long_file(reader, rng)]
    docs = [doc for doc in lines if "manifest" not in doc and "model_points" not in doc]
    if rng.random() < 0.33:
        column, value = rng.choice(numeric_paths(docs[-1])), rng.choice(EDGE_VALUES)
        for doc in docs:
            if column in numeric_paths(doc):
                set_at(doc, column, value)
    for _ in range(rng.randint(0, 3)):
        doc = rng.choice(docs)
        set_at(doc, rng.choice(numeric_paths(doc)), rng.choice(EDGE_VALUES))
    if rng.random() < 0.2:
        fields = {p[:-1] if isinstance(p[-1], int) else p for p in numeric_paths(docs[-1])}
        field, reshape = rng.choice(sorted(fields, key=str)), rng.choice(RESHAPES)
        for doc in docs:
            if any(p[:len(field)] == field for p in numeric_paths(doc)):
                set_at(doc, field, reshape(get_at(doc, field)))
    for key, values in (("quat_wxyz", EDGE_QUATS), ("t_m", EDGE_TRANSLATIONS),
                        ("bbox", EDGE_BOXES)):
        doc = rng.choice(docs)
        paths = [p[:-1] for p in numeric_paths(doc) if any(str(k).startswith(key) for k in p)]
        if paths and rng.random() < 0.5:
            set_at(doc, rng.choice(paths), rng.choice(values))
    if rng.random() < 0.2:
        doc = rng.choice(docs)
        set_at(doc, rng.choice(numeric_paths(doc)), rng.choice(EDGE_TOKENS))
    if len(lines) >= 200 and rng.random() < 0.2:
        set_at(lines[199], rng.choice(numeric_paths(lines[199])), int(BIG))
    return [dumps(doc) for doc in lines]


@pytest.mark.parametrize("reader", READERS)
def test_edge_values_match_the_row_by_row_read(both_reads, reader):
    """Ints (past 2**53, 2**63, 2**64 and 2**70 too), 1e400, NaN and Infinity, bools among
    floats and on their own, numeric strings, dicts where lists belong, -0.0, subnormals,
    quaternion norms one ulp either side of 1e-12 and translations whose t.t is zero or
    overflows: each file gives the row-by-row read's bits or message."""
    rng, results, big_ints = random.Random(6), [], 0
    for _ in range(60):
        lines = edge_file(reader, rng)
        new, row_by_row = both_reads(reader, lines)
        assert new == row_by_row, lines
        results.append(new[0])
        big_ints += len(lines) >= 200 and BIG in lines[199]
    assert {"ok", "error"} <= set(results)
    assert results.count("ok") > 10 and big_ints > 0


DEGENERATE = ([60, 80, 0, 0], "degenerate bbox (60.0, 80.0, 0.0, 0.0)")
# reader: (field, bad value, the constructors' message); an all-NaN predicted box is not a
# missing one
BAD_LINES = {"targets": [("focal_px", -1.0, "focal length must be positive, got -1.0")],
             "pairs": [("bbox_gt", *DEGENERATE), ("bbox_pred", [math.nan] * 4,
                                                   "degenerate bbox (nan, nan, nan, nan)")],
             "annotations": [("bbox", *DEGENERATE)], "sample-records": [("bbox", *DEGENERATE)]}


@pytest.mark.parametrize("reader", READERS)
def test_clean_files_take_the_column_path(both_reads, monkeypatch, reader):
    """With the row-by-row read's constructors made to raise, a clean file still gives its
    bits; a file with one bad line still gives the constructors' message, naming the line."""
    rng = random.Random(8)
    lines = long_file(reader, rng)
    lines.insert(len(lines) // 2, "")
    expected = both_reads(reader, lines)
    assert expected[0][0] == "ok"

    def refuse(*args, **kwargs):
        raise AssertionError("the row-by-row read ran")

    with monkeypatch.context() as m:
        for owner, name in ((ParamState, "from_dict"), (Rotation, "__post_init__"),
                            (cli, "BBox"), (sampling, "annotation_row")):
            m.setattr(owner, name, refuse)
        both_reads.path.write_text("\n".join(lines) + "\n")
        assert outcome(lambda: READERS[reader][2](both_reads.path, lines)) == expected[0]
    for key, value, message in BAD_LINES[reader]:
        bad = list(lines)
        spot = rng.randrange(len(bad) // 2 + 1, len(bad))  # past the blank line
        doc = json.loads(bad[spot])
        bad[spot] = json.dumps({**doc, key: value})
        new, row_by_row = both_reads(reader, bad)
        where = fault_name(reader, both_reads.path, bad, spot)
        assert new == row_by_row == ("error", f"{where}: {message}")


def test_a_fault_falls_back_for_its_block_alone(both_reads, monkeypatch):
    """A numeric-string focal length, which the row checks take, on line 250 of 300: the
    row checks run on the 7 lines of its block alone, and the read gives the bits of the
    row-by-row read."""
    rng, calls = random.Random(9), []
    from_dict, annotation_row = ParamState.from_dict, sampling.annotation_row
    monkeypatch.setattr(ParamState, "from_dict", lambda d: calls.append(d) or from_dict(d))
    monkeypatch.setattr(sampling, "annotation_row",
                        lambda d: calls.append(d) or annotation_row(d))
    for reader, key in (("targets", "focal_px"), ("annotations", "f_px")):
        lines = [json.dumps(READERS[reader][0](rng)) for _ in range(300)]
        lines[249] = json.dumps({**json.loads(lines[249]), key: "600"})
        new, row_by_row = both_reads(reader, lines)
        assert new[0] == "ok" and new == row_by_row
        calls.clear()
        assert outcome(lambda: READERS[reader][2](both_reads.path, lines)) == new
        assert 0 < len(calls) <= 7, reader


def test_sample_records_fall_back_for_their_block_alone(monkeypatch):
    """sample's nonparametric records, 2 x 10^4 of them, the last with a numeric-string
    focal length: the row checks run on at most READ_BLOCK records, and every column equals
    the row-by-row build of all the records."""
    rng, calls = random.Random(12), []
    records = [annotation_doc(rng) for _ in range(20_000)]
    records[-1] = {**records[-1], "f_px": "600"}
    rows_only = errors.number_columns(map(sampling.annotation_row, records),
                                      *sampling.ANNOTATION_SHAPES)
    annotation_row = sampling.annotation_row
    monkeypatch.setattr(sampling, "annotation_row",
                        lambda d: calls.append(d) or annotation_row(d))
    monkeypatch.setattr(sampling, "sample_pose_nonparametric", lambda poses, *_: poses)
    poses = cli._draw_poses({"kind": "nonparametric", "records": records, "deltas": DELTAS},
                            0, 0)
    assert 0 < len(calls) <= errors.READ_BLOCK
    assert pose_bits(poses) == pose_bits(PoseBatch(*rows_only[:3]))
    calls.clear()
    columns = errors.block_columns(records, sampling.annotation_fields, sampling.annotation_row,
                                   *sampling.ANNOTATION_SHAPES)
    assert 0 < len(calls) <= errors.READ_BLOCK
    for got, want in zip(columns, rows_only, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_a_block_read_again_starts_from_the_clouds_before_it(tmp_path, monkeypatch):
    """A block that the column-wise read rejects after a header line renames a cloud is
    read again row by row from the clouds named before it: its pair ahead of the header
    takes the former cloud, as in the former reader."""
    monkeypatch.setattr(errors, "READ_BLOCK", 3)
    rng, path = random.Random(10), tmp_path / "pairs.jsonl"
    first, again = ({"model_points": {"cube": [[rng.uniform(-0.1, 0.1) for _ in range(3)]]}}
                    for _ in range(2))
    ahead, odd = ({**pair_doc(rng), "points": "cube"} for _ in range(2))
    odd["img_diag"] = "500"  # a number the row checks take and the columns do not
    lines = [first, {"manifest": {}}, {"manifest": {}}, ahead, again, odd]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
    new = outcome(lambda: columns_bits(cli._load_pairs(path)))
    assert new[0] == "ok" and new == old_outcome(lambda: pairs_bits(old_load_pairs(path)))


# ---------------------------------------------------------------------------
# The pair and annotation reads, parsed by orjson, against the same reads parsed by json
# ---------------------------------------------------------------------------

@pytest.fixture
def both_parsers(monkeypatch, tmp_path):
    """read(reader, lines) -> ((outcome, blocks read row by row) of the reader on a file of
    ``lines``, the same with its column-wise path parsed by json, as the row-by-row path
    is). Blocks of 7 rows."""
    monkeypatch.setattr(errors, "READ_BLOCK", 7)
    path, by_columns, fallbacks = tmp_path / "in.jsonl", errors.by_columns, []
    monkeypatch.setattr(errors, "by_columns", lambda columns, rows: by_columns(
        columns, lambda: fallbacks.append(rows) or rows()))

    def read_once(reader, lines):
        fallbacks.clear()
        return outcome(lambda: READERS[reader][2](path, lines)), len(fallbacks)

    def read(reader, lines):
        path.write_text("\n".join(lines) + "\n")
        with_orjson = read_once(reader, lines)
        with monkeypatch.context() as m:
            m.setattr(orjson, "loads", json.loads)
            return with_orjson, read_once(reader, lines)

    return read


ORJSON_READERS = ("pairs", "annotations")


def float_text(x: float, rng) -> str:
    """``x`` as a JSON number in one of five forms: repr, %.17g, %.25e, the exact decimal
    halfway between x and the next double up, or x's 17 significant digits and 1 to 40
    random ones after them."""
    form = rng.randrange(5)
    if form == 3 and math.isfinite(up := math.nextafter(x, math.inf)):
        with localcontext(prec=1200):
            return str((Decimal(x) + Decimal(up)) / 2)
    if form == 4:
        digits, exponent = f"{x:.16e}".split("e")
        return f"{digits}{''.join(rng.choices('0123456789', k=rng.randint(1, 40)))}e{exponent}"
    return ("%r", "%.17g", "%.25e")[form % 3] % x


def any_double(rng) -> float:
    """A finite double of random bits: any sign, exponent and mantissa."""
    while not math.isfinite(x := struct.unpack("<d", rng.randbytes(8))[0]):
        pass
    return x


def with_numbers(lines, text) -> list:
    """``lines`` with every number in them written as ``text(number)``."""
    docs = [json.loads(line) for line in lines]
    for doc in docs:
        for path in numeric_paths(doc):
            set_at(doc, path, f"<{text(get_at(doc, path))}>")
    return [dumps(doc) for doc in docs]


def data_lines(docs) -> list:
    return [i for i, doc in enumerate(docs) if "manifest" not in doc and "model_points" not in doc]


@pytest.mark.parametrize("reader", ORJSON_READERS)
def test_float_corpus_reads_as_json(both_parsers, reader):
    """Long valid files, as written and with every number moved by up to 1e-9 of itself and
    written in one of float_text's forms (halfway points among them): both parsers give
    the same bits and neither falls back. Then up to three numbers of a file made any finite
    double, in the same forms: the same bits or message."""
    rng, results = random.Random(13), []
    for _ in range(25):
        lines = long_file(reader, rng)
        moved = with_numbers(lines, lambda x: float_text(x * (1 + rng.uniform(-1e-9, 1e-9)),
                                                         rng))
        for clean in (lines, moved):
            with_orjson, with_json = both_parsers(reader, clean)
            assert with_orjson == with_json and with_orjson[1] == 0, clean
            assert with_orjson[0][0] == "ok", with_orjson[0]
        docs = [json.loads(line) for line in moved]
        for _ in range(rng.randint(1, 3)):
            doc = docs[rng.choice(data_lines(docs))]
            set_at(doc, rng.choice(numeric_paths(doc)), f"<{float_text(any_double(rng), rng)}>")
        with_orjson, with_json = both_parsers(reader, [dumps(doc) for doc in docs])
        assert with_orjson[0] == with_json[0]
        results.append(with_orjson[0][0])
    assert {"ok", "error"} <= set(results)


# ints at the edges of int64 and uint64 and past them, the last too large for a float
EDGE_INTS = [2**63 - 1, -(2**63 - 1), -(2**63) - 1, 2**64, 2**70, 10**25, int(BIG)]


@pytest.mark.parametrize("reader", ORJSON_READERS)
def test_integers_read_as_json(both_parsers, reader):
    """EDGE_INTS at a number of one line, or of every line: the same bits or message.
    orjson reads an int past int64 and uint64 as its float, where json's int makes an object
    column; so on some files json's column-wise read falls back and orjson's does not."""
    rng, results, taken_as_floats = random.Random(14), [], 0
    for value in EDGE_INTS:
        for _ in range(10):
            docs = [json.loads(line) for line in long_file(reader, rng)]
            rows = [docs[i] for i in data_lines(docs)]
            path = rng.choice(numeric_paths(rows[-1]))
            for doc in rows if rng.random() < 0.5 else [rng.choice(rows)]:
                if path in numeric_paths(doc):
                    set_at(doc, path, value)
            (new, blocks), (old, json_blocks) = both_parsers(reader, list(map(json.dumps, docs)))
            assert new == old, (value, path)
            results.append(new[0])
            taken_as_floats += new[0] == "ok" and blocks < json_blocks
    assert {"ok", "error"} <= set(results) and taken_as_floats > 0


# what json takes and orjson rejects: NaN, infinities, 1e400 and lone-surrogate escapes
ORJSON_REJECTS = ["<NaN>", "<Infinity>", "<-Infinity>", HUGE, "\ud800", "a\udc00"]


@pytest.mark.parametrize("reader", ORJSON_READERS)
def test_what_orjson_rejects_reads_as_json(both_parsers, reader):
    """One of ORJSON_REJECTS at a number or in a field of its own on one line, or a BOM
    before one line, which both reject: the same bits or message. A field of its own, which
    json's column-wise read takes, sends the block alone row by row."""
    rng, results = random.Random(15), []
    for _ in range(45):
        lines = long_file(reader, rng)
        spot, token, place = rng.randrange(len(lines)), rng.choice(ORJSON_REJECTS), rng.random()
        doc = json.loads(lines[spot])
        if place < 0.25:
            lines[spot] = "\ufeff" + lines[spot]
        elif place < 0.6:
            set_at(doc, rng.choice(numeric_paths(doc)), token)
            lines[spot] = dumps(doc)
        else:
            lines[spot] = dumps({**doc, "note": token})
        with_orjson, with_json = both_parsers(reader, lines)
        assert with_orjson[0] == with_json[0], lines[spot]
        if place >= 0.6:
            assert (with_orjson[1], with_json[1]) == (1, 0)
        results.append(with_orjson[0][0])
    assert {"ok", "error"} <= set(results)


@pytest.mark.parametrize("reader", ORJSON_READERS)
@pytest.mark.parametrize("depth", [990, 1000, 1030, 100_000])
def test_deep_lines_read_as_json(both_parsers, reader, depth):
    """A value of nested lists or of nested objects that makes a line ``depth`` deep, around
    json's recursion limit (orjson 3.8 has none, and 10^5 objects crash it): at a number,
    in a field of its own, as a manifest and as a line of its own. The same bits or message."""
    rng, deep = random.Random(depth), depth - 1
    for value in ("[" * deep + "0" + "]" * deep, '{"a": ' * deep + "0" + "}" * deep):
        lines = long_file(reader, rng)
        spot = rng.choice(data_lines([json.loads(line) for line in lines]))
        doc = json.loads(lines[spot])
        set_at(doc, rng.choice(numeric_paths(doc)), "<deep>")
        for line in (json.dumps(doc), json.dumps({**json.loads(lines[spot]), "note": "<deep>"}),
                     json.dumps({"manifest": "<deep>"}), '"<deep>"'):
            deep_lines = [*lines[:spot], line.replace('"<deep>"', value), *lines[spot + 1:]]
            with_orjson, with_json = both_parsers(reader, deep_lines)
            assert with_orjson[0] == with_json[0], line
