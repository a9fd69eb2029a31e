"""The shared JSONL record reader."""

import pytest

from chronolm.errors import InvalidTimestamp, MalformedRecord
from chronolm.util import read_jsonl


def test_read_jsonl_skips_blank_lines_and_parses_each_record(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n   \n{"a": 2}\n')
    assert list(read_jsonl(str(path), lambda obj: obj["a"])) == [1, 2]


BAD_LINES = {
    "not-json": ("{broken", MalformedRecord, "invalid JSON"),
    "too-deep": ("[" * 100_000, MalformedRecord, "nested too deeply"),
    "list": ("[1, 2]", MalformedRecord, "not a JSON object"),
    "null": ("null", MalformedRecord, "not a JSON object"),
    "key-error": ('{"b": 1}', MalformedRecord, "'a'"),
    "value-error": ('{"a": "x"}', MalformedRecord, "int"),
    "type-error": ('{"a": null}', MalformedRecord, "int"),
    "chrono-error": ('{"a": -1}', InvalidTimestamp, "negative"),  # keeps its type
}


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_read_jsonl_names_file_and_line(tmp_path, case):
    line, error, needle = BAD_LINES[case]

    def parse(obj):
        value = int(obj["a"])
        if value < 0:
            raise InvalidTimestamp("negative")
        return value

    path = tmp_path / "records.jsonl"
    path.write_text(f'{{"a": 1}}\n\n{line}\n')
    with pytest.raises(error) as info:
        list(read_jsonl(str(path), parse))
    assert type(info.value) is error
    assert str(info.value).startswith(f"{path} line 3: ")
    assert needle in str(info.value)


def test_read_jsonl_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes('{"a": "café"}\n'.encode("latin-1"))
    with pytest.raises(MalformedRecord, match="not UTF-8"):
        list(read_jsonl(str(path), dict))
