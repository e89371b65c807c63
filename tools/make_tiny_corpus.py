"""Generate the bundled tiny corpus (src/advlm/data/tiny.txt).

Seeded synthetic prose: pseudo-English word forms arranged by a small
template grammar with topic blocks and a shared function-word pool, so the
sample has natural-text statistics (bursty topics, frequent function words,
rarer content words) without carrying any third-party license. Regenerating
with the same seed reproduces the file byte for byte.

The grammar is data: FORMS, FIXED and TOPICAL below, read by one sampler.
The order of the rng draws is part of the output, so it is spelled out
where each draw is made.
"""

import os

import numpy as np

SEED = 20240817
TARGET_TOKENS = 55_000

ONSETS = ["b", "br", "c", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "k",
          "l", "m", "n", "p", "pl", "pr", "r", "s", "sl", "sp", "st", "t",
          "tr", "v", "w"]
VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
CODAS = ["", "n", "r", "s", "t", "l", "nd", "st", "ck", "m"]
SYLLABLES = 2

DET = ["the", "the", "the", "a", "a", "its", "some", "every"]
PREP = ["of", "in", "near", "under", "behind", "beyond", "along", "with"]
CONJ = ["and", "while", "but", "as"]
ADVERBS = ["slowly", "often", "quietly", "again", "almost", "rarely",
           "together", "early"]

# A sentence is one form, drawn uniformly; each of its slots is one word.
FORMS = [
    "det n v det a n",
    "det a n prep det n v adv",
    "det n prep det n v det n",
    "det n v adv conj det n v",
    "adv det n v prep det a n",
    "det n conj det n v det n prep det n",
    "det a a n v det n",
    "det n v",
]
FIXED = {"det": DET, "prep": PREP, "conj": CONJ, "adv": ADVERBS}
# Topical slots (noun, verb, adjective): the share of words drawn from the
# sentence topic's own pool rather than the shared one, then the per-topic
# and shared pool sizes. Pools are small and word choice within one is
# uniform, so every type recurs often (median type count in the hundreds)
# and embedding geometry reflects training rather than init noise.
TOPICAL = {"n": (0.75, 24, 20), "v": (0.7, 10, 8), "a": (0.7, 10, 8)}
NUM_TOPICS = 4


def make_words(rng, count, taken):
    words = []
    while len(words) < count:
        w = "".join(ONSETS[rng.integers(len(ONSETS))]
                    + VOWELS[rng.integers(len(VOWELS))]
                    + CODAS[rng.integers(len(CODAS))] for _ in range(SYLLABLES))
        if 4 <= len(w) <= 10 and w not in taken:
            taken.add(w)
            words.append(w)
    return words


def lexicon(rng):
    """(shared, topics): each topical slot's shared pool, then one dict of
    pools per topic, drawn in that order."""
    taken = set(DET + PREP + CONJ + ADVERBS)
    shared = {slot: make_words(rng, size, taken)
              for slot, (_, _, size) in TOPICAL.items()}
    topics = [{slot: make_words(rng, size, taken)
               for slot, (_, size, _) in TOPICAL.items()}
              for _ in range(NUM_TOPICS)]
    return shared, topics


def sentence(rng, shared, own):
    """Draw a form, then per slot: the pool (topical slots only) and a word."""
    words = []
    for slot in FORMS[rng.integers(len(FORMS))].split():
        if slot in TOPICAL:
            pool = (own if rng.random() < TOPICAL[slot][0] else shared)[slot]
        else:
            pool = FIXED[slot]
        words.append(pool[rng.integers(len(pool))])
    return words


def generate(seed=SEED, target_tokens=TARGET_TOKENS):
    rng = np.random.default_rng(seed)
    shared, topics = lexicon(rng)
    lines, tokens, block_left = [], 0, 0
    while tokens < target_tokens:
        if block_left == 0:
            own = topics[rng.integers(NUM_TOPICS)]
            block_left = int(rng.integers(15, 40))  # sentences in this block
        words = sentence(rng, shared, own)
        lines.append(" ".join(words))
        tokens += len(words) + 1  # line end counts as one token downstream
        block_left -= 1
    return "\n".join(lines) + "\n"


def main():
    out = os.path.join(os.path.dirname(__file__), "..", "src", "advlm", "data",
                       "tiny.txt")
    out = os.path.normpath(out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    text = generate()
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    toks = text.split()
    lines = text.count("\n")
    print(f"wrote {out}: {len(toks) + lines} tokens incl. line ends, "
          f"{lines} lines, {len(set(toks))} word types")


if __name__ == "__main__":
    main()
