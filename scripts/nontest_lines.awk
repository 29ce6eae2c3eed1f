# Non-test lines of Rust sources: every line outside a `#[cfg(test)]`
# item. An item runs from its attribute to the line that closes its
# braces (or, brace-less, to its first code line ending in `;` or `,`);
# braces inside strings, char literals and line comments do not count,
# and a blank line right after an item goes with it. With `-v filter=1`
# it prints nothing: a program given after it by a second `-f` then sees
# only the non-test lines (`nontest` in scripts/check.sh).
function braces(s,   i, c, d) {
    d = 0
    for (i = 1; i <= length(s); i++) {
        c = substr(s, i, 1)
        if (quote != "") {
            if (c == "\\" && quote == "\"") i++
            else if (substr(s, i, length(quote)) == quote) { i += length(quote) - 1; quote = "" }
        } else if (substr(s, i, 2) == "//") {
            break
        } else if (c == "\"") {
            quote = "\""
        } else if (match(substr(s, i), /^r#+"/)) {
            quote = "\"" substr(s, i + 1, RLENGTH - 2); i += RLENGTH - 1
        } else if (match(substr(s, i), /^'(\\u\{[0-9a-fA-F]+\}|\\.|[^\\'])'/)) {
            i += RLENGTH - 1
        } else if (c == "{") {
            d++; opened = 1
        } else if (c == "}") {
            d--
        }
    }
    return d
}
FNR == 1 { skip = 0; after = 0; quote = "" }
!skip && /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0 }
skip {
    depth += braces($0)
    if (quote == "" && (opened ? depth <= 0 : /^[ \t]*[^ \t\/#].*[;,][ \t]*$/)) { skip = 0; after = 1 }
    next
}
after && /^[ \t]*$/ { after = 0; next }
{ after = 0; n++ }
END { if (!filter) print n + 0 }
