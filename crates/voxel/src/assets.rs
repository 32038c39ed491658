//! Builders for every voxel asset Traffic Warehouse uses.
//!
//! The shipping-warehouse metaphor "lends itself to a simple 3D design (floor,
//! pallets, and boxes)"; each builder produces a small voxel model on a fixed
//! canvas so all assets share the consistent scale the paper wants.

use crate::grid::VoxelGrid;
use crate::palette;

/// The kinds of assets the warehouse scene instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssetKind {
    /// A shipping pallet (one per traffic-matrix cell).
    Pallet,
    /// A packet box stacked on a pallet (one per packet).
    PacketBox,
    /// One floor tile under each pallet.
    FloorTile,
    /// The board an axis label is painted on.
    LabelBoard,
}

/// Canvas edge length shared by the pallet/box/floor assets (a "similar canvas
/// size" keeps contributed assets consistent, per the paper).
pub const ASSET_CANVAS: usize = 8;

/// Build a shipping pallet: two layers of slats with gaps, on support blocks,
/// accented with the given palette accent color on the top slats.
pub fn pallet_asset(accent: u8) -> VoxelGrid {
    let mut g = VoxelGrid::new(ASSET_CANVAS, 3, ASSET_CANVAS);
    // Bottom support blocks at the corners and center.
    for &x in &[0usize, 3, 6] {
        for &z in &[0usize, 3, 6] {
            g.fill_box(x, 0, z, x + 1, 0, z + 1, palette::PALLET_WOOD);
        }
    }
    // Stringers along x.
    for &z in &[0usize, 3, 6] {
        g.fill_box(0, 1, z, 7, 1, z + 1, palette::PALLET_WOOD);
    }
    // Top deck slats along z, alternating with gaps; accent color on top.
    for x in (0..ASSET_CANVAS).step_by(2) {
        g.fill_box(x, 2, 0, x, 2, 7, accent);
    }
    g
}

/// Build a packet box: a solid cardboard cube with a darker tape stripe.
pub fn box_asset() -> VoxelGrid {
    let mut g = VoxelGrid::new(4, 4, 4);
    g.fill_box(0, 0, 0, 3, 3, 3, palette::BOX_CARDBOARD);
    // Tape stripe across the top.
    g.fill_box(0, 3, 1, 3, 3, 2, palette::ACCENT_GREY);
    g
}

/// Build a floor tile: a flat slab of warehouse concrete.
pub fn floor_tile() -> VoxelGrid {
    let mut g = VoxelGrid::new(ASSET_CANVAS, 1, ASSET_CANVAS);
    g.fill_box(
        0,
        0,
        0,
        ASSET_CANVAS - 1,
        0,
        ASSET_CANVAS - 1,
        palette::FLOOR_GREY,
    );
    g
}

/// Build a label board: a white board with a wooden post, used for axis labels.
pub fn label_board() -> VoxelGrid {
    let mut g = VoxelGrid::new(ASSET_CANVAS, 6, 1);
    // Post.
    g.fill_box(3, 0, 0, 4, 2, 0, palette::PALLET_WOOD);
    // Board.
    g.fill_box(0, 3, 0, ASSET_CANVAS - 1, 5, 0, palette::LABEL_WHITE);
    g
}

/// Build the asset for a kind with the default (grey) accent.
pub fn build(kind: AssetKind) -> VoxelGrid {
    match kind {
        AssetKind::Pallet => pallet_asset(palette::ACCENT_GREEN),
        AssetKind::PacketBox => box_asset(),
        AssetKind::FloorTile => floor_tile(),
        AssetKind::LabelBoard => label_board(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::{
        Palette, ACCENT_BLACK, ACCENT_BLUE, ACCENT_GREEN, ACCENT_GREY, ACCENT_RED,
    };

    #[test]
    fn all_assets_are_nonempty_and_bounded() {
        for kind in [
            AssetKind::Pallet,
            AssetKind::PacketBox,
            AssetKind::FloorTile,
            AssetKind::LabelBoard,
        ] {
            let asset = build(kind);
            assert!(asset.filled_count() > 0, "{kind:?} is empty");
            let (x, y, z) = asset.size();
            assert!(x <= ASSET_CANVAS && y <= ASSET_CANVAS && z <= ASSET_CANVAS);
        }
    }

    #[test]
    fn pallet_accent_follows_color_codes() {
        assert!(pallet_asset(Palette::accent_for_code(0))
            .colors_used()
            .contains(&ACCENT_GREY));
        assert!(pallet_asset(Palette::accent_for_code(1))
            .colors_used()
            .contains(&ACCENT_BLUE));
        assert!(pallet_asset(Palette::accent_for_code(2))
            .colors_used()
            .contains(&ACCENT_RED));
        assert!(pallet_asset(Palette::accent_for_code(9))
            .colors_used()
            .contains(&ACCENT_BLACK));
        // Default pallet uses the green default material like the paper's script.
        assert!(build(AssetKind::Pallet)
            .colors_used()
            .contains(&ACCENT_GREEN));
    }

    #[test]
    fn pallet_has_gaps_between_slats() {
        let pallet = pallet_asset(ACCENT_GREY);
        // Odd x columns at deck height are empty (the slat gaps).
        assert!(!pallet.is_filled(1, 2, 0));
        assert!(pallet.is_filled(0, 2, 0));
    }

    #[test]
    fn box_is_solid_cube_with_tape() {
        let b = box_asset();
        assert_eq!(b.filled_count(), 4 * 4 * 4);
        assert!(b.colors_used().contains(&ACCENT_GREY));
    }

    #[test]
    fn floor_tile_is_flat() {
        let f = floor_tile();
        assert_eq!(f.size().1, 1);
        assert_eq!(f.filled_count(), ASSET_CANVAS * ASSET_CANVAS);
    }
}
