//! The limited color palette used by all Traffic Warehouse assets.
//!
//! The paper argues that a limited palette keeps community-contributed assets
//! "in a fairly consistent artistic style"; the indices here double as the
//! material identifiers the renderer and OBJ exporter use.

/// A palette entry: an index plus an RGB color in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaletteColor {
    /// Palette index (stable; stored in voxel grids).
    pub index: u8,
    /// A short material name, used in OBJ material libraries.
    pub name: &'static str,
    /// Red component.
    pub r: f64,
    /// Green component.
    pub g: f64,
    /// Blue component.
    pub b: f64,
}

/// The fixed warehouse palette.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Palette;

/// Palette index for empty space (no voxel).
pub const EMPTY: u8 = 0;
/// Warehouse concrete floor.
pub const FLOOR_GREY: u8 = 1;
/// Pallet wood.
pub const PALLET_WOOD: u8 = 2;
/// Cardboard packet box.
pub const BOX_CARDBOARD: u8 = 3;
/// Default (grey) pallet accent.
pub const ACCENT_GREY: u8 = 4;
/// Blue-space pallet accent.
pub const ACCENT_BLUE: u8 = 5;
/// Red-space pallet accent.
pub const ACCENT_RED: u8 = 6;
/// Green accent (the default pallet material in the paper's script).
pub const ACCENT_GREEN: u8 = 7;
/// Black error material (the `_` fallback arm in the paper's match statement).
pub const ACCENT_BLACK: u8 = 8;
/// Label board white.
pub const LABEL_WHITE: u8 = 9;

const COLORS: [PaletteColor; 10] = [
    PaletteColor {
        index: EMPTY,
        name: "empty",
        r: 0.0,
        g: 0.0,
        b: 0.0,
    },
    PaletteColor {
        index: FLOOR_GREY,
        name: "floor_grey",
        r: 0.55,
        g: 0.55,
        b: 0.58,
    },
    PaletteColor {
        index: PALLET_WOOD,
        name: "pallet_wood",
        r: 0.72,
        g: 0.53,
        b: 0.30,
    },
    PaletteColor {
        index: BOX_CARDBOARD,
        name: "box_cardboard",
        r: 0.82,
        g: 0.68,
        b: 0.45,
    },
    PaletteColor {
        index: ACCENT_GREY,
        name: "accent_grey",
        r: 0.65,
        g: 0.65,
        b: 0.65,
    },
    PaletteColor {
        index: ACCENT_BLUE,
        name: "accent_blue",
        r: 0.22,
        g: 0.42,
        b: 0.85,
    },
    PaletteColor {
        index: ACCENT_RED,
        name: "accent_red",
        r: 0.85,
        g: 0.22,
        b: 0.22,
    },
    PaletteColor {
        index: ACCENT_GREEN,
        name: "accent_green",
        r: 0.30,
        g: 0.70,
        b: 0.35,
    },
    PaletteColor {
        index: ACCENT_BLACK,
        name: "accent_black",
        r: 0.05,
        g: 0.05,
        b: 0.05,
    },
    PaletteColor {
        index: LABEL_WHITE,
        name: "label_white",
        r: 0.95,
        g: 0.95,
        b: 0.95,
    },
];

impl Palette {
    /// Look up a palette entry by index; out-of-range indices map to the black
    /// error material, mirroring the `_:` fallback in the paper's color match.
    pub fn color(index: u8) -> PaletteColor {
        COLORS
            .iter()
            .copied()
            .find(|c| c.index == index)
            .unwrap_or(COLORS[ACCENT_BLACK as usize])
    }

    /// All palette entries.
    pub fn all() -> &'static [PaletteColor] {
        &COLORS
    }

    /// The accent palette index for a traffic-matrix color code
    /// (0 grey, 1 blue, 2 red), with the black fallback for unknown codes —
    /// exactly the `match int(color)` in the paper's `change_pallet_color()`.
    pub fn accent_for_code(code: u32) -> u8 {
        match code {
            0 => ACCENT_GREY,
            1 => ACCENT_BLUE,
            2 => ACCENT_RED,
            _ => ACCENT_BLACK,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_index() {
        assert_eq!(Palette::color(ACCENT_BLUE).name, "accent_blue");
        assert_eq!(
            Palette::color(200).name,
            "accent_black",
            "unknown indices fall back to black"
        );
        assert_eq!(Palette::all().len(), COLORS.len());
    }

    #[test]
    fn indices_are_consistent() {
        for (i, color) in Palette::all().iter().enumerate() {
            assert_eq!(color.index as usize, i);
        }
    }

    #[test]
    fn accent_codes_match_the_paper_script() {
        assert_eq!(Palette::accent_for_code(0), ACCENT_GREY);
        assert_eq!(Palette::accent_for_code(1), ACCENT_BLUE);
        assert_eq!(Palette::accent_for_code(2), ACCENT_RED);
        assert_eq!(Palette::accent_for_code(99), ACCENT_BLACK);
    }

    #[test]
    fn colors_are_normalized() {
        for c in Palette::all() {
            for component in [c.r, c.g, c.b] {
                assert!((0.0..=1.0).contains(&component));
            }
        }
    }
}
