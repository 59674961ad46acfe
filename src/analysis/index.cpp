/**
 * @file
 * Token-stream symbol indexer. One linear pass per TU:
 *
 *   1. flat scans collect declared std::unordered_* names and
 *      receiver-type hints;
 *   2. a scope-tracking pass finds namespace / class nesting and
 *      function definitions (`name(params) trailer {`), then records
 *      events inside each body: calls, lock acquisitions,
 *      nondeterminism sources, container iterations, and arch-state
 *      stores.
 *
 * The indexer is heuristic by design: it never resolves types or
 * overloads, and unparseable constructs degrade to "no event", never
 * to a crash. The graph layer treats the result conservatively.
 */

#include "analysis/index.h"

#include <algorithm>
#include <cstddef>

namespace minjie::analysis {

namespace {

bool
isAnyOf(std::string_view s, std::initializer_list<std::string_view> set)
{
    for (std::string_view c : set)
        if (s == c)
            return true;
    return false;
}

/** Keywords that look like calls (`if (`) but are not. */
bool
isCallKeyword(std::string_view s)
{
    return isAnyOf(s, {"if", "for", "while", "switch", "return",
                       "sizeof", "alignof", "alignas", "decltype",
                       "noexcept", "static_assert", "catch", "new",
                       "delete", "throw", "co_await", "co_return",
                       "case", "do", "else", "goto", "default",
                       "constexpr", "requires"});
}

bool
isDeclKeyword(std::string_view s)
{
    return isAnyOf(s, {"if", "for", "while", "switch", "return",
                       "sizeof", "case", "do", "else", "goto"});
}

/** Host-RNG calls banned on deterministic paths (see MJ-DET-001). */
bool
isRngCall(std::string_view s)
{
    return isAnyOf(s, {"rand", "srand", "random", "srandom", "rand_r",
                       "drand48", "lrand48"});
}

/** Wall-clock calls banned on deterministic paths (see MJ-DET-002). */
bool
isClockCall(std::string_view s)
{
    return isAnyOf(s, {"time", "clock", "gettimeofday", "localtime",
                       "gmtime", "ctime", "mktime", "clock_gettime"});
}

bool
isNondetType(std::string_view s)
{
    return isAnyOf(s, {"random_device", "mt19937", "mt19937_64",
                       "system_clock", "steady_clock",
                       "high_resolution_clock"});
}

bool
isUnorderedContainer(std::string_view s)
{
    return isAnyOf(s, {"unordered_map", "unordered_set",
                       "unordered_multimap", "unordered_multiset"});
}

bool
isLockGuardType(std::string_view s)
{
    return isAnyOf(s,
                   {"lock_guard", "unique_lock", "scoped_lock",
                    "shared_lock"});
}

/** Mirrors rules_probe.cpp's PROTECTED_CSRS (the DiffTest-compared
 *  fields); keep the two lists in sync when extending either. */
bool
isProtectedCsr(std::string_view s)
{
    return isAnyOf(s, {"mstatus", "mepc", "mcause", "mtval", "mtvec",
                       "mscratch", "mie", "medeleg", "mideleg", "sepc",
                       "scause", "stval", "stvec", "sscratch", "satp",
                       "fflags", "frm", "pmpcfg0", "pmpaddr0"});
}

bool
isAssignPunct(const Token &t)
{
    return t.kind == Tok::Punct &&
           isAnyOf(t.text, {"=", "+=", "-=", "*=", "/=", "%=", "&=",
                            "|=", "^=", "<<=", ">>=", "++", "--"});
}

/** Matching ')' / ']' / '}' for the bracket at @p open (paren-family
 *  only; '<' is ambiguous and handled by callers that know context). */
size_t
matchParen(const std::vector<Token> &toks, size_t open)
{
    char o = toks[open].text[0];
    char c = o == '(' ? ')' : o == '[' ? ']' : '}';
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
        if (toks[i].kind != Tok::Punct || toks[i].text.size() != 1)
            continue;
        if (toks[i].text[0] == o)
            ++depth;
        else if (toks[i].text[0] == c && --depth == 0)
            return i;
    }
    return toks.size();
}

/** Matching '>' for a template-argument '<' (nesting-aware, bails at
 *  tokens a template list cannot contain). */
size_t
matchAngle(const std::vector<Token> &toks, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.is("<"))
            ++depth;
        else if (t.is(">") && --depth == 0)
            return i;
        else if (t.is(">>") && (depth -= 2) <= 0)
            return i;
        else if (t.is(";") || t.is("{"))
            break;
    }
    return toks.size();
}

/** Walk a qualifier chain backwards from the ident at @p i:
 *  `A::B::name` yields "A::B". */
std::string
qualChainBefore(const std::vector<Token> &toks, size_t i)
{
    std::string qual;
    size_t k = i;
    while (k >= 2 && toks[k - 1].is("::") &&
           toks[k - 2].kind == Tok::Ident) {
        std::string part(toks[k - 2].text);
        qual = qual.empty() ? part : part + "::" + qual;
        k -= 2;
    }
    return qual;
}

/**
 * Parse the tokens after a parameter list's ')' at @p afterClose.
 * Returns the index of the body '{' when this is a definition, or
 * npos for declarations / non-functions. Handles cv/ref/noexcept
 * trailers, trailing return types, and constructor initializer lists
 * (including brace-initializers inside them).
 */
size_t
findBodyBrace(const std::vector<Token> &toks, size_t afterClose)
{
    constexpr size_t npos = static_cast<size_t>(-1);
    size_t j = afterClose;
    const size_t n = toks.size();
    while (j < n) {
        const Token &t = toks[j];
        if (t.is("{"))
            return j;
        if (t.is(";") || t.is(",") || t.is("=") || t.is(")"))
            return npos;
        if (t.kind == Tok::Ident &&
            isAnyOf(t.text, {"const", "noexcept", "override", "final",
                             "volatile", "mutable", "try", "requires"})) {
            // noexcept(expr) / requires(expr)
            if (j + 1 < n && toks[j + 1].is("(")) {
                j = matchParen(toks, j + 1);
                if (j == n)
                    return npos;
            }
            ++j;
            continue;
        }
        if (t.is("&") || t.is("&&")) {
            ++j;
            continue;
        }
        if (t.is("->")) {
            // Trailing return type: skip tokens until the body brace
            // or a declaration terminator.
            ++j;
            while (j < n && !toks[j].is("{") && !toks[j].is(";") &&
                   !toks[j].is("=")) {
                if (toks[j].is("<")) {
                    size_t c = matchAngle(toks, j);
                    if (c == n)
                        return npos;
                    j = c;
                }
                ++j;
            }
            continue;
        }
        if (t.is(":")) {
            // Constructor initializer list: member ( ... ) or
            // member { ... }, comma-separated, then the body brace.
            ++j;
            while (j < n) {
                // Skip the member name (possibly qualified/templated).
                while (j < n && (toks[j].kind == Tok::Ident ||
                                 toks[j].is("::") || toks[j].is("...")))
                    ++j;
                if (j < n && toks[j].is("<")) {
                    size_t c = matchAngle(toks, j);
                    if (c == n)
                        return npos;
                    j = c + 1;
                }
                if (j >= n || !(toks[j].is("(") || toks[j].is("{")))
                    return npos;
                size_t c = matchParen(toks, j);
                if (c == n)
                    return npos;
                j = c + 1;
                if (j < n && toks[j].is("..."))
                    ++j;
                if (j < n && toks[j].is(",")) {
                    ++j;
                    continue;
                }
                break;
            }
            continue;
        }
        return npos;
    }
    return npos;
}

/** Source text of the first argument after '(' at @p open (up to the
 *  first top-level ',' or the closing ')'). */
std::string
firstArgText(const std::vector<Token> &toks, size_t open)
{
    std::string out;
    int depth = 0;
    for (size_t i = open + 1; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.is("(") || t.is("[") || t.is("{"))
            ++depth;
        else if (t.is(")") || t.is("]") || t.is("}")) {
            if (depth == 0)
                break;
            --depth;
        } else if (t.is(",") && depth == 0)
            break;
        out += t.text;
    }
    return out;
}

} // namespace

TuIndex
buildIndex(const SourceFile &file, const LexResult &lexed)
{
    TuIndex tu;
    tu.path = file.path();
    const auto &toks = lexed.tokens;
    const size_t n = toks.size();

    // Pass 1: declared unordered containers. The pattern
    // `type < ... > name` is scope-agnostic on purpose: a member
    // declared in a header must resolve iteration sites in other TUs.
    for (size_t i = 0; i < n; ++i) {
        if (toks[i].kind != Tok::Ident)
            continue;
        if (isUnorderedContainer(toks[i].text) && i + 1 < n &&
            toks[i + 1].is("<")) {
            size_t close = matchAngle(toks, i + 1);
            if (close + 1 < n && toks[close + 1].kind == Tok::Ident)
                tu.unorderedNames.emplace_back(toks[close + 1].text);
        }
        // Receiver-type hints: `Type name ;|=|{|,|)` (optionally with
        // template args and */& between). Noisy entries are fine —
        // they only ever NARROW member-call resolution.
        if (!isCallKeyword(toks[i].text) &&
            !isAnyOf(toks[i].text,
                     {"const", "static", "auto", "using", "typename",
                      "typedef", "namespace", "template", "public",
                      "private", "protected", "virtual", "inline",
                      "explicit", "friend", "operator", "extern"})) {
            size_t j = i + 1;
            if (j < n && toks[j].is("<")) {
                size_t c = matchAngle(toks, j);
                if (c == n)
                    continue;
                j = c + 1;
            }
            while (j < n && (toks[j].is("*") || toks[j].is("&") ||
                             toks[j].is("&&") ||
                             toks[j].isIdent("const")))
                ++j;
            if (j + 1 < n && toks[j].kind == Tok::Ident &&
                !isCallKeyword(toks[j].text) &&
                (toks[j + 1].is(";") || toks[j + 1].is("=") ||
                 toks[j + 1].is("{") || toks[j + 1].is(",") ||
                 toks[j + 1].is(")")))
                tu.varTypes.emplace_back(std::string(toks[j].text),
                                         std::string(toks[i].text));
        }
    }
    std::sort(tu.varTypes.begin(), tu.varTypes.end());
    tu.varTypes.erase(
        std::unique(tu.varTypes.begin(), tu.varTypes.end()),
        tu.varTypes.end());
    std::sort(tu.unorderedNames.begin(), tu.unorderedNames.end());
    tu.unorderedNames.erase(std::unique(tu.unorderedNames.begin(),
                                        tu.unorderedNames.end()),
                            tu.unorderedNames.end());

    // Pass 2: scopes, function definitions, and body events.
    struct Scope
    {
        std::string name; ///< "" for anonymous
        int bodyDepth;    ///< braceDepth inside the scope
    };
    std::vector<Scope> scopes;
    int depth = 0;
    FunctionIndex *fn = nullptr; ///< active function, else null
    int fnBodyDepth = 0;

    auto openNamedScope = [&](size_t i) -> size_t {
        // namespace A::B { ... } | class/struct/union/enum X ... { ... }
        const Token &kw = toks[i];
        size_t j = i + 1;
        std::string name;
        if (kw.isIdent("namespace")) {
            while (j < n && toks[j].kind == Tok::Ident) {
                name += name.empty() ? std::string(toks[j].text)
                                     : "::" + std::string(toks[j].text);
                if (j + 1 < n && toks[j + 1].is("::"))
                    j += 2;
                else {
                    ++j;
                    break;
                }
            }
            if (j < n && toks[j].is("{")) {
                scopes.push_back({name, depth + 1});
                return j; // caller processes the '{'
            }
            return i; // namespace alias / using — no scope
        }
        if (j < n &&
            (toks[j].isIdent("class") || toks[j].isIdent("struct")))
            ++j; // enum class / enum struct
        // Skip macro-ish idents followed by '(' (alignas, attributes).
        while (j + 1 < n && toks[j].kind == Tok::Ident &&
               toks[j + 1].is("("))
            j = matchParen(toks, j + 1) + 1;
        if (j >= n || toks[j].kind != Tok::Ident)
            return i; // anonymous struct — depth tracking suffices
        name = std::string(toks[j].text);
        // Find the body '{' or a ';' (forward declaration) first.
        for (size_t k = j + 1; k < n; ++k) {
            if (toks[k].is(";") || toks[k].is("(") || toks[k].is("="))
                return i;
            if (toks[k].is("{")) {
                scopes.push_back({name, depth + 1});
                return k;
            }
        }
        return i;
    };

    for (size_t i = 0; i < n; ++i) {
        const Token &t = toks[i];

        if (t.is("{")) {
            ++depth;
            continue;
        }
        if (t.is("}")) {
            --depth;
            if (fn && depth < fnBodyDepth)
                fn = nullptr;
            while (!scopes.empty() && scopes.back().bodyDepth > depth)
                scopes.pop_back();
            continue;
        }

        if (!fn) {
            if (t.isIdent("namespace") || t.isIdent("class") ||
                t.isIdent("struct") || t.isIdent("union") ||
                t.isIdent("enum")) {
                size_t brace = openNamedScope(i);
                if (brace != i)
                    i = brace - 1; // loop's ++i lands on the '{'
                continue;
            }
            // Function definition: ident '(' ... ')' trailer '{'.
            if (t.kind == Tok::Ident && !isCallKeyword(t.text) &&
                i + 1 < n && toks[i + 1].is("(")) {
                size_t close = matchParen(toks, i + 1);
                if (close == n)
                    continue;
                size_t body = findBodyBrace(toks, close + 1);
                if (body == static_cast<size_t>(-1))
                    continue;
                FunctionIndex f;
                f.name = std::string(t.text);
                if (i >= 1 && toks[i - 1].is("~"))
                    f.name = "~" + f.name;
                f.line = t.line;
                std::string qual = qualChainBefore(toks, i);
                std::string outer;
                for (const Scope &s : scopes)
                    if (!s.name.empty())
                        outer += s.name + "::";
                f.qualName = outer +
                             (qual.empty() ? "" : qual + "::") + f.name;
                tu.functions.push_back(std::move(f));
                fn = &tu.functions.back();
                fnBodyDepth = depth + 1;
                // Record initializer-list calls (`ctor() : a_(g()) {`)
                // as entry calls, then resume at the body brace.
                for (size_t k = close + 1; k + 1 < body; ++k)
                    if (toks[k].kind == Tok::Ident &&
                        !isCallKeyword(toks[k].text) &&
                        toks[k + 1].is("(") && k > close + 1 &&
                        !toks[k - 1].is(":") && !toks[k - 1].is(",")) {
                        CallEvent c;
                        c.name = std::string(toks[k].text);
                        c.qualHint = qualChainBefore(toks, k);
                        c.line = toks[k].line;
                        fn->calls.push_back(std::move(c));
                    }
                i = body - 1; // loop's ++i lands on the '{'
                continue;
            }
            continue;
        }

        // ---- inside a function body ----
        if (t.kind != Tok::Ident)
            continue;

        // Lock guard: lock_guard<...> g(m); scoped_lock locks all args.
        if (isLockGuardType(t.text)) {
            size_t j = i + 1;
            if (j < n && toks[j].is("<")) {
                size_t c = matchAngle(toks, j);
                if (c == n)
                    continue;
                j = c + 1;
            }
            if (j < n && toks[j].kind == Tok::Ident)
                ++j; // variable name
            if (j >= n || !toks[j].is("("))
                continue;
            size_t close = matchParen(toks, j);
            // Each comma-separated argument is one acquired lock.
            size_t argStart = j;
            while (argStart < close) {
                std::string lockName = firstArgText(toks, argStart);
                if (!lockName.empty()) {
                    LockEvent e;
                    e.lockName = lockName;
                    e.line = t.line;
                    fn->locks.push_back(std::move(e));
                }
                int d = 0;
                ++argStart;
                while (argStart < close) {
                    const Token &a = toks[argStart];
                    if (a.is("(") || a.is("[") || a.is("{") || a.is("<"))
                        ++d;
                    else if (a.is(")") || a.is("]") || a.is("}") ||
                             a.is(">"))
                        --d;
                    else if (a.is(",") && d == 0)
                        break;
                    ++argStart;
                }
            }
            i = close;
            continue;
        }

        // Explicit m.lock() / pthread_mutex_lock(&m).
        if ((t.isIdent("lock") || t.isIdent("lock_shared")) && i >= 2 &&
            (toks[i - 1].is(".") || toks[i - 1].is("->")) &&
            toks[i - 2].kind == Tok::Ident && i + 1 < n &&
            toks[i + 1].is("(")) {
            LockEvent e;
            e.lockName = std::string(toks[i - 2].text);
            e.line = t.line;
            fn->locks.push_back(std::move(e));
            continue;
        }
        if (t.isIdent("pthread_mutex_lock") && i + 1 < n &&
            toks[i + 1].is("(")) {
            std::string arg = firstArgText(toks, i + 1);
            if (!arg.empty() && arg[0] == '&')
                arg.erase(0, 1);
            LockEvent e;
            e.lockName = arg;
            e.line = t.line;
            fn->locks.push_back(std::move(e));
            // falls through: also recorded as a call below
        }

        // Nondeterminism sources.
        bool prevMember =
            i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->"));
        bool isCall = i + 1 < n && toks[i + 1].is("(");
        if (!prevMember && isCall &&
            (isRngCall(t.text) || isClockCall(t.text))) {
            DetEvent e;
            e.what = std::string(t.text) + "()";
            e.line = t.line;
            fn->detSources.push_back(std::move(e));
        } else if (!prevMember && isNondetType(t.text)) {
            DetEvent e;
            e.what = "std::" + std::string(t.text);
            e.line = t.line;
            fn->detSources.push_back(std::move(e));
        }

        // Range-for iteration: for ( decl : expr ).
        if (t.isIdent("for") && i + 1 < n && toks[i + 1].is("(")) {
            size_t close = matchParen(toks, i + 1);
            bool classic = false;
            size_t colon = 0;
            int d = 0;
            for (size_t k = i + 2; k < close && k < n; ++k) {
                if (toks[k].is("(") || toks[k].is("[") || toks[k].is("{"))
                    ++d;
                else if (toks[k].is(")") || toks[k].is("]") ||
                         toks[k].is("}"))
                    --d;
                else if (toks[k].is(";") && d == 0) {
                    classic = true;
                    break;
                } else if (toks[k].is(":") && d == 0 && colon == 0)
                    colon = k;
            }
            if (!classic && colon != 0) {
                IterEvent e;
                e.line = t.line;
                for (size_t k = colon + 1; k < close; ++k)
                    if (toks[k].kind == Tok::Ident &&
                        !isDeclKeyword(toks[k].text))
                        e.names.emplace_back(toks[k].text);
                if (!e.names.empty())
                    fn->iterUses.push_back(std::move(e));
            }
            continue;
        }
        // Explicit begin() iteration: X.begin() / X.cbegin().
        if ((t.isIdent("begin") || t.isIdent("cbegin")) && prevMember &&
            i >= 2 && toks[i - 2].kind == Tok::Ident && isCall) {
            IterEvent e;
            e.line = t.line;
            e.names.emplace_back(toks[i - 2].text);
            fn->iterUses.push_back(std::move(e));
        }

        // Arch-state stores (mirrors MJ-PRB patterns).
        if ((t.isIdent("x") || t.isIdent("f")) && prevMember &&
            i + 1 < n && toks[i + 1].is("[")) {
            size_t close = matchParen(toks, i + 1);
            if (close + 1 < n && isAssignPunct(toks[close + 1])) {
                WriteEvent e;
                e.what = std::string(t.text) + "[] store";
                e.line = t.line;
                fn->archWrites.push_back(std::move(e));
            }
        }
        if (t.isIdent("csr") && i + 3 < n && toks[i + 1].is(".") &&
            toks[i + 2].kind == Tok::Ident &&
            isProtectedCsr(toks[i + 2].text) &&
            isAssignPunct(toks[i + 3])) {
            WriteEvent e;
            e.what = "csr." + std::string(toks[i + 2].text) + " store";
            e.line = t.line;
            fn->archWrites.push_back(std::move(e));
        }

        // Call sites (after the special forms above).
        if (isCall && !isCallKeyword(t.text)) {
            CallEvent c;
            c.name = std::string(t.text);
            c.line = t.line;
            c.member = prevMember;
            if (!prevMember)
                c.qualHint = qualChainBefore(toks, i);
            else if (i >= 2 && toks[i - 2].kind == Tok::Ident)
                c.recv = std::string(toks[i - 2].text);
            // The fork rules tolerate stderr-directed stdio; keep the
            // argument text for exactly those calls so the graph rule
            // can apply the same tolerance.
            if (isAnyOf(t.text, {"fprintf", "vfprintf", "fputs",
                                 "fputc", "fflush", "fwrite"})) {
                size_t close = matchParen(toks, i + 1);
                for (size_t k = i + 2;
                     k < close && c.firstArg.size() < 64; ++k)
                    c.firstArg += toks[k].text;
            }
            fn->calls.push_back(std::move(c));
        }
    }

    return tu;
}

} // namespace minjie::analysis
