import pytest

from qpae.data import check_forget_set


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
