"""Reference implementation for the artifacts layer (test use only).

``format_value`` formats one CSV value the way every artifact has been
written: a bool as true or false, a float (np.float64 included) as %.16e
and anything else as its str().  ``csv_text`` joins a table of rows with
it, one value at a time.  ``fockfield.artifacts.write_csv`` formats typed
columns with one row template per table and writes chunks of rows, so its
text must equal ``csv_text`` of the same table.  The one deliberate
difference: np.bool_ is not a bool, so ``format_value`` prints it as
True or False, while the writer's bool columns print true or false.
"""


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"
