import pathlib
import re
import warnings

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_the_python_api_example_runs(capsys):
    # The ```python block under "Python API", as a script, with a numpy
    # RuntimeWarning as an error.
    code, = re.findall(r"^## Python API\n+```python\n(.*?)^```$",
                       README.read_text(), re.M | re.S)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
    assert len(capsys.readouterr().out.splitlines()) == 3
