//! Value normalisation applied before similarity computation.
//!
//! Historical census transcriptions mix case, stray punctuation and
//! abbreviation dots; normalising first keeps the string metrics focused on
//! genuine differences.

/// Normalise a free-text attribute value: trim, lower-case, collapse runs
/// of whitespace, and strip characters that are neither alphanumeric,
/// space, hyphen nor apostrophe.
#[must_use]
pub fn normalize_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true; // swallow leading whitespace
    for c in s.chars().flat_map(char::to_lowercase) {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else if c.is_alphanumeric() || c == '-' || c == '\'' {
            out.push(c);
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Normalise a personal name: [`normalize_value`] plus diacritic folding,
/// so "Müller" and "Muller" compare equal at the normalisation layer.
#[must_use]
pub fn normalize_name(s: &str) -> String {
    normalize_value(s).chars().map(fold_diacritic).collect()
}

/// Fold one lowercase Latin-1 / Latin Extended-A diacritic character to
/// its ASCII base letter. Characters outside the table pass through
/// unchanged. The per-character core of [`normalize_name`], exposed so
/// allocation-free consumers (the blocking key builder) can fold without
/// materialising a `String`.
#[must_use]
pub fn fold_diacritic(c: char) -> char {
    match c {
        'à' | 'á' | 'â' | 'ã' | 'ä' | 'å' | 'ā' | 'ă' => 'a',
        'ç' | 'ć' | 'č' => 'c',
        'è' | 'é' | 'ê' | 'ë' | 'ē' | 'ė' => 'e',
        'ì' | 'í' | 'î' | 'ï' | 'ī' => 'i',
        'ñ' | 'ń' => 'n',
        'ò' | 'ó' | 'ô' | 'õ' | 'ö' | 'ø' | 'ō' => 'o',
        'ù' | 'ú' | 'û' | 'ü' | 'ū' => 'u',
        'ý' | 'ÿ' => 'y',
        'ž' | 'ź' | 'ż' => 'z',
        'š' | 'ś' => 's',
        'ß' => 's', // best-effort single-char fold
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trims_and_lowercases() {
        assert_eq!(normalize_value("  John  SMITH "), "john smith");
    }

    #[test]
    fn strips_punctuation_keeps_name_chars() {
        assert_eq!(normalize_value("O'Brien, Jr."), "o'brien jr");
        assert_eq!(normalize_value("Ashton-under-Lyne!"), "ashton-under-lyne");
    }

    #[test]
    fn collapses_whitespace() {
        assert_eq!(normalize_value("a \t b\n\nc"), "a b c");
    }

    #[test]
    fn empty_stays_empty() {
        assert_eq!(normalize_value("   "), "");
        assert_eq!(normalize_name(""), "");
    }

    #[test]
    fn diacritics_fold() {
        assert_eq!(normalize_name("Müller"), "muller");
        assert_eq!(normalize_name("José"), "jose");
        assert_eq!(normalize_name("weiß"), "weis");
    }

    proptest! {
        #[test]
        fn prop_idempotent(s in ".{0,30}") {
            let once = normalize_value(&s);
            prop_assert_eq!(normalize_value(&once), once);
        }

        #[test]
        fn prop_no_upper_no_double_space(s in ".{0,30}") {
            let n = normalize_value(&s);
            prop_assert!(!n.contains("  "));
            // only characters with a real lowercase mapping are guaranteed
            // lowered (e.g. 🄰 is Uppercase but maps to itself)
            prop_assert!(!n.chars().any(|c| c.is_uppercase() && c.to_lowercase().next() != Some(c)));
            prop_assert!(!n.starts_with(' ') && !n.ends_with(' '));
        }
    }
}
