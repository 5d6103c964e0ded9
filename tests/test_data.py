import numpy as np
import pytest

from qpae.data import LabeledDataset, check_forget_set
from qpae.eraser import superpose_labels


@pytest.mark.parametrize("forget_set, message", [
    ([], "forget_set must name at least one class"),
    ([2, -1], r"forget_set holds \[-1\], not class ids in \[0, 4\)"),
    ([4, 0, 5], r"forget_set holds \[4, 5\], not class ids in \[0, 4\)"),
    ([0, 1, 2, 3], "forget_set must leave at least one class retained"),
], ids=["empty", "negative", "k_and_past", "every_class"])
def test_bad_forget_set_is_refused(forget_set, message):
    with pytest.raises(ValueError, match=message):
        check_forget_set(forget_set, 4)


def test_a_repeated_class_counts_once():
    check_forget_set([0, 0], 2)  # class 1 stays retained


def test_labels_are_one_hot_until_their_class_is_superposed():
    classes = np.array([2, 0, 1, 3, 4, 2, 0, 4, 1])
    data = LabeledDataset(np.arange(18.0).reshape(9, 2), classes, 5)
    assert data.labels().tobytes() == np.eye(5)[classes].tobytes()

    once = superpose_labels(data, {2})
    twice = superpose_labels(once, {0, 4})
    assert twice.superposed == frozenset({0, 2, 4})
    assert twice.features is data.features
    assert twice.original_classes is data.original_classes
    labels = twice.labels()
    hit = np.isin(classes, [0, 2, 4])
    assert labels[hit].tobytes() == np.full((hit.sum(), 5), 1.0 / 5).tobytes()
    assert labels[~hit].tobytes() == np.eye(5)[classes[~hit]].tobytes()

    rows = np.array([4, 3, 0, 1])
    part = twice.subset(rows)
    assert part.superposed == twice.superposed
    assert part.labels().tobytes() == labels[rows].tobytes()

    assert data.superposed == frozenset() and once.superposed == frozenset({2})
    assert data.labels().tobytes() == np.eye(5)[classes].tobytes()
